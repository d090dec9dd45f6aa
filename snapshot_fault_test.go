package rmtest_test

// Snapshot/restore round-trips under active fault windows: an M-level
// GPCA system with a fault plan armed is advanced to a snapshot bound,
// captured, restored twice from the same snapshot, and each
// continuation must reproduce the uninterrupted faulted run sample for
// sample. The fuzzer draws the stimulus-jitter and fault seeds, the
// scheme, the plan, the bound, and whether the stimuli at or after the
// bound are armed before the capture or through Restore's arm hook.

import (
	"reflect"
	"testing"
	"time"

	"rmtest"
	"rmtest/internal/core"
	"rmtest/internal/faults"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

// roundTripPlans is the fault catalogue plus a queue drop on every
// second send, whose cadence counter the catalogue's drop-every-send
// plan leaves trivial.
func roundTripPlans(horizon sim.Time) []faults.Plan {
	return append(rmtest.FaultCatalog(horizon), faults.Plan{Name: "queue-drop-every-2", Faults: []faults.Fault{
		{Class: faults.QueueDrop, Target: "inQ", Duration: horizon, Every: 2}}})
}

// roundTripCase is the three-sample bolus schedule the round-trips run.
func roundTripCase(req core.Requirement, seed uint64) (core.TestCase, error) {
	gen := core.Generator{
		N: 3, Start: 50 * time.Millisecond,
		Spacing:  4500 * time.Millisecond,
		Strategy: core.JitteredSpacing, Jitter: 200 * time.Millisecond,
		Seed: seed,
	}
	return gen.Generate(req)
}

func FuzzSnapshotRoundTrip(f *testing.F) {
	pb, err := gpca.Precompile()
	if err != nil {
		f.Fatal(err)
	}
	req := gpca.REQ1()

	// Seeds: the stateful injector classes — seeded sensor jitter (Rand
	// stream position), queue-drop cadence (send counter) and clock
	// drift (live ticker skew) — on scheme 2, captured just before the
	// second stimulus with everything armed up front, then the same
	// three with the later stimuli armed through the restore hook.
	const jitterSeed, faultSeed = 7, 0x5eed
	tc, err := roundTripCase(req, jitterSeed)
	if err != nil {
		f.Fatal(err)
	}
	plans := roundTripPlans(tc.Horizon(req))
	for _, armLate := range []bool{false, true} {
		for _, name := range []string{"sensor-latency", "queue-drop-every-2", "clock-drift"} {
			idx := -1
			for i, p := range plans {
				if p.Name == name {
					idx = i
				}
			}
			f.Add(uint64(jitterSeed), uint64(faultSeed), uint8(2), uint8(idx), uint64(tc.Stimuli[1]), armLate)
		}
	}

	f.Fuzz(func(t *testing.T, jitterSeed, faultSeed uint64, scheme, planIdx uint8, boundNS uint64, armLate bool) {
		tc, err := roundTripCase(req, jitterSeed)
		if err != nil {
			t.Fatal(err)
		}
		horizon := tc.Horizon(req)
		plans := roundTripPlans(horizon)
		plan := plans[int(planIdx)%len(plans)]
		bound := sim.Time(boundNS % uint64(horizon))
		newScheme := func() platform.Scheme { return platform.DefaultScheme2() }
		if scheme%2 == 1 {
			newScheme = func() platform.Scheme { return platform.DefaultScheme3() }
		}

		// The system to capture, armed by hand so the snapshot can be
		// interposed: primaries in instant order, then the plan — the
		// order core.Runner.Setup arms them.
		sys, err := pb.NewSystem(newScheme(), platform.MLevel, &platform.Scratch{})
		if err != nil {
			t.Fatal(err)
		}
		defer sys.Shutdown()
		armStimuli := func(late bool) {
			st := req.Stimulus
			for _, at := range tc.Stimuli {
				if (at >= bound) != late {
					continue
				}
				if st.Width > 0 {
					sys.Env.PulseAt(at, st.Signal, st.Value, st.Rest, st.Width)
				} else {
					sys.Env.SetAt(at, st.Signal, st.Value)
				}
			}
		}
		armStimuli(false)
		if !armLate {
			armStimuli(true)
		}
		if err := plan.Apply(sys, faultSeed); err != nil {
			t.Skipf("plan %s does not apply: %v", plan.Name, err)
		}

		// Uninterrupted faulted run: the reference the round-trips must
		// reproduce.
		runner, err := core.NewRunner(gpca.FactoryPrebuilt(pb, newScheme, &platform.Scratch{}), req)
		if err != nil {
			t.Fatal(err)
		}
		runner.Prepare = faults.Prepare(plan, faultSeed)
		ref, err := runner.RunM(tc)
		if err != nil {
			t.Fatal(err)
		}

		snap, ok := sys.AdvanceSnapshot(bound)
		if !ok {
			t.Skipf("no snapshot-eligible instant before %v under %s", bound, plan.Name)
		}
		if at := snap.At(); at < 0 || at > bound {
			t.Fatalf("snapshot at %v, want inside [0, %v]", at, bound)
		}

		// Two round-trips from the one snapshot: the first must match
		// the reference, the second the first — a restore may not consume
		// or corrupt the snapshot. With armLate the arm hook schedules the
		// stimuli the capture never saw; otherwise the snapshot's own
		// pending events carry the rest of the schedule.
		arm := func() {}
		if armLate {
			arm = func() { armStimuli(true) }
		}
		want, against := ref.Samples, "the uninterrupted run"
		for trip := 0; trip < 2; trip++ {
			sys.Restore(snap, arm)
			sys.Run(horizon)
			mr := runner.AnnotateM(sys, tc, runner.Evaluate(sys, tc))
			sys.DetachTransTrace()
			if !reflect.DeepEqual(mr.Samples, want) {
				t.Fatalf("round-trip %d under %s (snapshot at %v, bound %v, armLate %v) diverged from %s:\ngot  %+v\nwant %+v",
					trip, plan.Name, snap.At(), bound, armLate, against, mr.Samples, want)
			}
			want, against = mr.Samples, "the first restore"
		}
	})
}
