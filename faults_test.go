package rmtest_test

// End-to-end checks of the fault-injection subsystem: the
// fault-attribution sweep against its golden CSV at several worker
// counts, the five-class attribution acceptance,
// panic containment and accounting in faulted campaigns, containment of
// a panicking task body, the
// deadline-boundary equivalence of the online monitor under an injected
// latency, scratch hygiene after an aborted faulted run, and the static
// blocking dominance under an ISR storm.

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rmtest"
	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/faults"
	"rmtest/internal/gpca"
	"rmtest/internal/leakcheck"
	"rmtest/internal/monitor"
	"rmtest/internal/platform"
	"rmtest/internal/rtos"
	"rmtest/internal/sim"
)

// TestFaultSweepMatchesGolden pins the fault-attribution sweep byte for
// byte: the rendered CSV must equal testdata/faults_seed42.csv at every
// worker count.
func TestFaultSweepMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/faults_seed42.csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		res, err := rmtest.FaultSweep(rmtest.FaultSweepOptions{
			Samples: 10, Seed: 42, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := rmtest.RenderFaultCSV(res.Attributions); got != string(golden) {
			t.Errorf("workers=%d: fault CSV deviates from golden:\n%s", workers, got)
		}
	}
}

// TestFaultAttributionAcceptance is the subsystem's acceptance check:
// for each of the five headline fault classes, M-testing must blame the
// delay segment the class is designed to damage.
func TestFaultAttributionAcceptance(t *testing.T) {
	res, err := rmtest.FaultSweep(rmtest.FaultSweepOptions{Samples: 10, Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	byPlan := map[string]rmtest.FaultAttribution{}
	for _, a := range res.Attributions {
		byPlan[a.Plan] = a
	}
	for _, plan := range []string{
		"sensor-latency", "actuator-latency", "task-overrun", "queue-drop", "clock-drift",
	} {
		a, ok := byPlan[plan]
		if !ok {
			t.Errorf("catalogue has no plan %q", plan)
			continue
		}
		if !a.Match {
			t.Errorf("%s: attributed %v, expected %v", plan, a.Attributed, a.Expected)
		}
		if a.Fail+a.Max == 0 {
			t.Errorf("%s: fault produced no violation to attribute", plan)
		}
	}
	// The baseline plan must be clean and the storm is the negative
	// control: diffuse damage, no single-segment attribution.
	if a := byPlan["baseline"]; a.Fail+a.Max != 0 || a.Attributed != rmtest.SegNone {
		t.Errorf("baseline not clean: %+v", a)
	}
	if a := byPlan["isr-storm"]; a.Attributed != rmtest.SegNone {
		t.Errorf("isr-storm attributed %v, want none (negative control)", a.Attributed)
	}
}

// TestFaultedCampaignPanicAccounting pins the containment contract for
// mis-targeted plans (satellite S4): a fault plan that panics in the
// Prepare hook fails exactly its own run, the campaign completes, the
// worker's scratch is discarded, and no task goroutines leak.
func TestFaultedCampaignPanicAccounting(t *testing.T) {
	before := leakcheck.Count()
	req := gpca.REQ1()
	gen := core.Generator{
		N: 2, Start: 50 * time.Millisecond,
		Spacing: 4500 * time.Millisecond, Strategy: core.JitteredSpacing,
		Jitter: 200 * time.Millisecond, Seed: 42,
	}
	tc, err := gen.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := gpca.Precompile()
	if err != nil {
		t.Fatal(err)
	}
	good := faults.Plan{Name: "ok", Faults: []faults.Fault{
		{Class: faults.ActuatorLatency, Target: "pump_motor", Duration: sim.Time(time.Hour), Max: 10 * time.Millisecond},
	}}
	bad := faults.Plan{Name: "bad", Faults: []faults.Fault{
		{Class: faults.SensorStuck, Target: "no-such-sensor", Duration: sim.Time(time.Hour)},
	}}
	plans := []faults.Plan{good, good, bad, good, good}

	var mu sync.Mutex
	var lastDone, scratches int
	maxDone := -1
	outs := campaign.MapScratch(
		campaign.Config{Workers: 2, Seed: 42, OnProgress: func(p campaign.Progress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Done < maxDone {
				t.Errorf("progress went backwards: %d after %d", p.Done, maxDone)
			}
			maxDone = p.Done
			lastDone = p.Done
		}},
		len(plans),
		func() *platform.Scratch { mu.Lock(); scratches++; mu.Unlock(); return &platform.Scratch{} },
		func(run campaign.Run, sc *platform.Scratch) (core.MResult, error) {
			factory := gpca.FactoryPrebuilt(pb, func() platform.Scheme { return platform.DefaultScheme2() }, sc)
			runner, err := core.NewRunner(factory, req)
			if err != nil {
				return core.MResult{}, err
			}
			runner.Prepare = faults.Prepare(plans[run.Index], run.Seed)
			return runner.RunM(tc)
		})

	failed := 0
	for i, o := range outs {
		if o.Failed() {
			failed++
			if i != 2 {
				t.Errorf("run %d failed, only the bad plan (index 2) should: %v", i, o.Err)
			}
			if !strings.Contains(o.Err.Error(), `unknown sensor "no-such-sensor"`) {
				t.Errorf("failure does not carry the Apply error: %v", o.Err)
			}
		} else if len(o.Value.Samples) != 2 {
			t.Errorf("run %d: %d samples, want 2", i, len(o.Value.Samples))
		}
	}
	if failed != 1 {
		t.Fatalf("failed runs = %d, want exactly 1", failed)
	}
	if lastDone != len(plans) {
		t.Fatalf("final progress Done = %d, want %d (a panicking run still counts as done)", lastDone, len(plans))
	}
	// The panicking run's scratch is discarded, so the pool must have
	// built at least one scratch beyond the two workers'.
	if scratches < 3 {
		t.Errorf("scratch factory ran %d times, want >= 3 (discard on panic)", scratches)
	}
	// All task goroutines must wind down, including the half-built
	// system the panic unwound through.
	if now, ok := leakcheck.Settle(before, 5*time.Second); !ok {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestTaskPanicContainedInCampaign: a task body that panics mid-run — a
// VM fault inside CODE(M), say — fails exactly its own campaign run, with
// the panic value in that run's error. The other runs are byte-identical
// to the same campaign without the faulty run, and no task goroutines
// leak.
func TestTaskPanicContainedInCampaign(t *testing.T) {
	before := leakcheck.Count()
	req := gpca.REQ1()
	pb, err := gpca.Precompile()
	if err != nil {
		t.Fatal(err)
	}
	const n, faulty = 5, 2
	campaignWith := func(bomb int) []campaign.Outcome[core.MResult] {
		return campaign.MapScratch(campaign.Config{Workers: 2, Seed: 42}, n,
			func() *platform.Scratch { return &platform.Scratch{} },
			func(run campaign.Run, sc *platform.Scratch) (core.MResult, error) {
				tc, err := core.Generator{
					N: 2, Start: 50 * time.Millisecond,
					Spacing: 4500 * time.Millisecond, Strategy: core.JitteredSpacing,
					Jitter: 200 * time.Millisecond, Seed: run.Seed,
				}.Generate(req)
				if err != nil {
					return core.MResult{}, err
				}
				factory := gpca.FactoryPrebuilt(pb, func() platform.Scheme { return platform.DefaultScheme2() }, sc)
				runner, err := core.NewRunner(factory, req)
				if err != nil {
					return core.MResult{}, err
				}
				if run.Index == bomb {
					runner.Prepare = func(sys *platform.System, _ core.TestCase) {
						sys.Sched.Spawn("faulty", 9, 2*time.Second, func(tk *rtos.Task) {
							tk.Compute(time.Millisecond)
							panic("task body fault")
						})
					}
				}
				return runner.RunM(tc)
			})
	}
	clean := campaignWith(-1)
	outs := campaignWith(faulty)
	render := func(o campaign.Outcome[core.MResult]) string {
		return fmt.Sprintf("%s %+v", o.Value.Scheme, o.Value.Samples)
	}
	for i, o := range outs {
		if i == faulty {
			if o.Err == nil || !strings.Contains(o.Err.Error(), "task body fault") {
				t.Errorf("run %d: error %v, want the contained task panic", i, o.Err)
			}
			continue
		}
		if o.Err != nil || clean[i].Err != nil {
			t.Fatalf("run %d failed: %v / %v", i, o.Err, clean[i].Err)
		}
		if got, want := render(o), render(clean[i]); got != want {
			t.Errorf("run %d differs from the clean campaign:\n%s\nwant:\n%s", i, got, want)
		}
	}
	if now, ok := leakcheck.Settle(before, 5*time.Second); !ok {
		t.Errorf("goroutines leaked: %d before, %d after", before, now)
	}
}

// boundaryResult runs the single-stimulus boundary scenario with the
// given injected actuator latency, on the post-hoc evaluator or the
// online monitor, and returns the sole sample.
func boundaryResult(t *testing.T, tc core.TestCase, req core.Requirement, extra sim.Time, online bool) core.MSample {
	t.Helper()
	factory := gpca.Factory(func() platform.Scheme { return platform.DefaultScheme2() })
	plan := faults.Plan{Name: "boundary", Faults: []faults.Fault{
		{Class: faults.ActuatorLatency, Target: "pump_motor", Duration: sim.Time(time.Hour), Max: extra},
	}}
	var mr core.MResult
	if online {
		runner, err := monitor.NewRunner(factory, req)
		if err != nil {
			t.Fatal(err)
		}
		if extra > 0 {
			runner.Post.Prepare = faults.Prepare(plan, 1)
		}
		mr, _, err = runner.RunM(tc)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		runner, err := core.NewRunner(factory, req)
		if err != nil {
			t.Fatal(err)
		}
		if extra > 0 {
			runner.Prepare = faults.Prepare(plan, 1)
		}
		var err2 error
		mr, err2 = runner.RunM(tc)
		if err2 != nil {
			t.Fatal(err2)
		}
	}
	if len(mr.Samples) != 1 {
		t.Fatalf("samples = %d, want 1", len(mr.Samples))
	}
	return mr.Samples[0]
}

// TestFaultedDeadlineBoundaryOnlineEquivalence pins the watchdog-epsilon
// fix (satellite S3): an injected latency placing the response exactly
// at deadline + timeout must yield the same verdict online and post-hoc
// (Fail, not MAX), and one nanosecond past the timeout must flip both
// paths to MAX together.
func TestFaultedDeadlineBoundaryOnlineEquivalence(t *testing.T) {
	req := gpca.REQ1()
	gen := core.Generator{N: 1, Start: 50 * time.Millisecond, Spacing: time.Second, Seed: 1}
	tc, err := gen.Generate(req)
	if err != nil {
		t.Fatal(err)
	}

	// Measure the unfaulted response delay, then craft the latency that
	// lands the c-event exactly at m + timeout.
	base := boundaryResult(t, tc, req, 0, false)
	if base.Verdict != core.Pass {
		t.Fatalf("baseline verdict %v, want Pass", base.Verdict)
	}
	exact := req.EffectiveTimeout() - base.Delay
	if exact <= 0 {
		t.Fatalf("baseline delay %v already beyond the timeout", base.Delay)
	}

	for _, c := range []struct {
		name  string
		extra sim.Time
		want  core.Verdict
	}{
		{"exactly at timeout", exact, core.Fail},
		{"one ns past timeout", exact + 1, core.Max},
	} {
		post := boundaryResult(t, tc, req, c.extra, false)
		online := boundaryResult(t, tc, req, c.extra, true)
		if post.Verdict != c.want {
			t.Errorf("%s: post-hoc verdict %v, want %v (delay %v)", c.name, post.Verdict, c.want, post.Delay)
		}
		if online.Verdict != post.Verdict || online.Delay != post.Delay {
			t.Errorf("%s: online (%v, %v) deviates from post-hoc (%v, %v)",
				c.name, online.Verdict, online.Delay, post.Verdict, post.Delay)
		}
		if c.want == core.Fail && post.Delay != req.EffectiveTimeout() {
			t.Errorf("%s: delay %v, want exactly %v", c.name, post.Delay, req.EffectiveTimeout())
		}
	}
}

// TestScratchCleanAfterAbortedFaultedRun pins kernel-reset hygiene at
// the platform layer (satellite S1): a faulted run abandoned in the
// middle of its fault windows must leave its worker scratch reusable —
// the next, unfaulted run on the same scratch measures exactly what a
// fresh system measures.
func TestScratchCleanAfterAbortedFaultedRun(t *testing.T) {
	req := gpca.REQ1()
	gen := core.Generator{
		N: 2, Start: 50 * time.Millisecond,
		Spacing: 4500 * time.Millisecond, Strategy: core.JitteredSpacing,
		Jitter: 200 * time.Millisecond, Seed: 42,
	}
	tc, err := gen.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := gpca.Precompile()
	if err != nil {
		t.Fatal(err)
	}
	scheme := func() platform.Scheme { return platform.DefaultScheme2() }

	// Faulted run with windows and timers far beyond the abort horizon:
	// a latch scheduled at 2s, a drifted sampling clock, a storm ticking
	// to the end of time.
	sc := &platform.Scratch{}
	runner, err := core.NewRunner(gpca.FactoryPrebuilt(pb, scheme, sc), req)
	if err != nil {
		t.Fatal(err)
	}
	runner.Prepare = faults.Prepare(faults.Plan{Name: "mid-window", Faults: []faults.Fault{
		{Class: faults.SensorStuck, Target: "bolus_button", Start: 2 * sim.Time(time.Second), Duration: sim.Time(time.Hour), Value: 1},
		{Class: faults.ClockDrift, Target: "bolus_button", Start: 0, Duration: sim.Time(time.Hour), PPM: 500_000},
		{Class: faults.ISRStorm, Duration: sim.Time(time.Hour), Period: 2 * time.Millisecond, Cost: 200 * time.Microsecond},
	}}, 7)
	sys, err := runner.Setup(platform.MLevel, tc)
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(sim.Time(time.Second)) // abort mid-window: stuck latch still pending
	sys.Shutdown()

	// Unfaulted run on the recycled scratch vs a freshly allocated system.
	recycled, err := core.NewRunner(gpca.FactoryPrebuilt(pb, scheme, sc), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := recycled.RunM(tc)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewRunner(gpca.FactoryPrebuilt(pb, scheme, nil), req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.RunM(tc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Samples, want.Samples) {
		t.Fatalf("recycled scratch measured differently after an aborted faulted run:\ngot  %+v\nwant %+v", got.Samples, want.Samples)
	}
}

// TestStaticBlockingDominatesUnderISRStorm extends the platform
// dominance cross-check into the fault layer (satellite S5): an ISR
// storm steals CPU as interference, not priority-inversion blocking, so
// the scheme-2 pipeline's measured per-release blocking must stay within
// the static B_i terms (zero) even while the storm runs. Response-time
// bounds are out of scope — the static model does not know about ISRs.
func TestStaticBlockingDominatesUnderISRStorm(t *testing.T) {
	req := gpca.REQ1()
	gen := core.Generator{
		N: 2, Start: 50 * time.Millisecond,
		Spacing: 4500 * time.Millisecond, Strategy: core.JitteredSpacing,
		Jitter: 200 * time.Millisecond, Seed: 7,
	}
	tc, err := gen.Generate(req)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpca.PlatformConfig()
	cfg.RTOS.TraceCapacity = 1 << 17
	sys, err := platform.NewSystem(cfg, platform.DefaultScheme2(), platform.RLevel)
	if err != nil {
		t.Fatal(err)
	}
	horizon := tc.Horizon(req)
	err = faults.Plan{Name: "storm", Faults: []faults.Fault{
		{Class: faults.ISRStorm, Duration: horizon, Period: 2 * time.Millisecond, Cost: 1800 * time.Microsecond},
	}}.Apply(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range tc.Stimuli {
		sys.Env.PulseAt(at, req.Stimulus.Signal, 1, 0, req.Stimulus.Width)
	}
	sys.Run(horizon)
	if sys.Sched.StormISRs() == 0 {
		t.Fatal("storm never fired")
	}
	blocking := rmtest.MeasuredBlocking(sys.Sched.Trace().Records())
	sys.Shutdown()

	an, err := rmtest.AnalyzePipelineStatic(rmtest.Scheme2().(*rmtest.Scheme2Config), nil)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, r := range an.Platform.Tasks {
		if !r.Schedulable {
			continue
		}
		checked++
		if mb := blocking[r.Task.Name]; mb > r.Task.Blocking {
			t.Errorf("task %q measured blocking %v under storm > static B=%v",
				r.Task.Name, mb, r.Task.Blocking)
		}
	}
	if checked == 0 {
		t.Fatal("dominance check covered no task")
	}
}
