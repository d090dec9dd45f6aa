package monitor_test

import (
	"reflect"
	"testing"
	"time"

	"rmtest/internal/core"
	"rmtest/internal/gpca"
	"rmtest/internal/monitor"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

const ms = time.Millisecond

func factories() map[string]core.SystemFactory {
	return map[string]core.SystemFactory{
		"scheme1": gpca.Factory(func() platform.Scheme { return platform.DefaultScheme1() }),
		"scheme2": gpca.Factory(func() platform.Scheme { return platform.DefaultScheme2() }),
		"scheme3": gpca.Factory(func() platform.Scheme { return platform.DefaultScheme3() }),
	}
}

func genCase(t *testing.T, n int, seed uint64) core.TestCase {
	t.Helper()
	g := core.Generator{
		N:        n,
		Start:    50 * ms,
		Spacing:  4500 * ms,
		Strategy: core.JitteredSpacing,
		Jitter:   200 * ms,
		Seed:     seed,
	}
	tc, err := g.Generate(gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// requireSameR asserts streaming and post-hoc R-results agree sample by
// sample, bit for bit.
func requireSameR(t *testing.T, label string, post core.RResult, on core.RResult) {
	t.Helper()
	if post.Scheme != on.Scheme {
		t.Fatalf("%s: scheme %q vs %q", label, post.Scheme, on.Scheme)
	}
	if !reflect.DeepEqual(post.Samples, on.Samples) {
		t.Fatalf("%s: R samples diverge\npost-hoc: %v\nonline:   %v", label, post.Samples, on.Samples)
	}
}

// requireSameM asserts streaming and post-hoc M-results agree on every
// comparable field (Program/TransTrace are per-run pointers and excluded).
func requireSameM(t *testing.T, label string, post core.MResult, on core.MResult) {
	t.Helper()
	if len(post.Samples) != len(on.Samples) {
		t.Fatalf("%s: M sample count %d vs %d", label, len(post.Samples), len(on.Samples))
	}
	for i := range post.Samples {
		if !reflect.DeepEqual(post.Samples[i], on.Samples[i]) {
			t.Fatalf("%s: M sample %d diverges\npost-hoc: %+v\nonline:   %+v", label, i, post.Samples[i], on.Samples[i])
		}
	}
}

// TestOnlineEquivalenceAcrossSchemes is the core tentpole assertion: for
// every implementation scheme, the streaming monitor produces exactly the
// verdicts the post-hoc trace scan produces — with and without early
// termination.
func TestOnlineEquivalenceAcrossSchemes(t *testing.T) {
	for name, factory := range factories() {
		for _, early := range []bool{false, true} {
			tc := genCase(t, 4, 42)
			post, err := core.NewRunner(factory, gpca.REQ1())
			if err != nil {
				t.Fatal(err)
			}
			on, err := monitor.NewRunner(factory, gpca.REQ1())
			if err != nil {
				t.Fatal(err)
			}
			on.EarlyStop = early
			label := name
			if early {
				label += "/early"
			}

			pr, err := post.RunR(tc)
			if err != nil {
				t.Fatal(err)
			}
			or, stats, err := on.RunR(tc)
			if err != nil {
				t.Fatal(err)
			}
			requireSameR(t, label+"/R", pr, or)
			if stats.Samples != len(tc.Stimuli) || len(stats.DecidedAt) != stats.Samples {
				t.Fatalf("%s: stats samples wrong: %+v", label, stats)
			}
			if stats.Events == 0 || stats.PeakInFlight == 0 || stats.PeakInFlight > len(tc.Stimuli) {
				t.Fatalf("%s: implausible stats: %+v", label, stats)
			}

			pm, err := post.RunM(tc)
			if err != nil {
				t.Fatal(err)
			}
			om, _, err := on.RunM(tc)
			if err != nil {
				t.Fatal(err)
			}
			requireSameM(t, label+"/M", pm, om)
		}
	}
}

// TestOnlineEquivalenceUnderFaults exercises the monitor against the
// fault-injection paths: a stuck bolus button (stimulus never becomes an
// i-event) and a dead pump motor (response path starved). Both must yield
// identical RResult/MResult from both evaluation paths.
func TestOnlineEquivalenceUnderFaults(t *testing.T) {
	faults := map[string]func(sys *platform.System, tc core.TestCase){
		"stuck-sensor": func(sys *platform.System, tc core.TestCase) {
			sys.Board.Sensor("bolus_button").InjectStuck(0, time.Hour, 0)
		},
		"dead-actuator": func(sys *platform.System, tc core.TestCase) {
			sys.Board.Actuator("pump_motor").InjectDead(0, time.Hour)
		},
		"jittery-sensor": func(sys *platform.System, tc core.TestCase) {
			sys.Board.Sensor("bolus_button").InjectJitter(0, time.Hour, 30*ms, 99)
		},
	}
	factory := gpca.Factory(func() platform.Scheme { return platform.DefaultScheme1() })
	for name, prep := range faults {
		tc := genCase(t, 3, 21)
		post, err := core.NewRunner(factory, gpca.REQ1())
		if err != nil {
			t.Fatal(err)
		}
		post.Prepare = prep
		on, err := monitor.NewRunner(factory, gpca.REQ1())
		if err != nil {
			t.Fatal(err)
		}
		on.Post.Prepare = prep
		on.EarlyStop = true

		prep1, err := post.RunRM(tc, true)
		if err != nil {
			t.Fatal(err)
		}
		orr, _, err := on.RunR(tc)
		if err != nil {
			t.Fatal(err)
		}
		omr, _, err := on.RunM(tc)
		if err != nil {
			t.Fatal(err)
		}
		requireSameR(t, name+"/R", prep1.R, orr)
		requireSameM(t, name+"/M", *prep1.M, omr)
		if odiag := core.Diagnose(omr); !reflect.DeepEqual(prep1.Diagnosis, odiag) {
			t.Fatalf("%s: diagnosis diverges\npost-hoc: %v\nonline:   %v", name, prep1.Diagnosis, odiag)
		}
	}
}

// TestDualPathOnOneRun attaches a monitor to a system and, after the run,
// also evaluates the recorded trace post-hoc — the strongest equivalence
// form: both paths observe the very same execution.
func TestDualPathOnOneRun(t *testing.T) {
	factory := gpca.Factory(func() platform.Scheme { return platform.DefaultScheme2() })
	runner, err := core.NewRunner(factory, gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	tc := genCase(t, 4, 7)
	mon, err := monitor.New(gpca.REQ1(), tc)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := runner.Setup(platform.RLevel, tc)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	mon.Attach(sys, false) // full horizon: the trace must be complete for post-hoc
	sys.Run(tc.Horizon(gpca.REQ1()))
	mon.Flush(sys.Kernel.Now())

	posthoc := runner.Evaluate(sys, tc)
	online := mon.Results()
	if !reflect.DeepEqual(posthoc, online) {
		t.Fatalf("same-run divergence\npost-hoc: %v\nonline:   %v", posthoc, online)
	}
	if !mon.Done() {
		t.Fatal("monitor must be done after flush")
	}
}

// TestEarlyTermination verifies the point of the subsystem: with
// EarlyStop, the run halts before the horizon, fires fewer kernel events,
// and still produces identical verdicts.
func TestEarlyTermination(t *testing.T) {
	factory := gpca.Factory(func() platform.Scheme { return platform.DefaultScheme1() })
	tc := genCase(t, 3, 42)

	full, err := monitor.NewRunner(factory, gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	fr, fstats, err := full.RunR(tc)
	if err != nil {
		t.Fatal(err)
	}
	if fstats.StoppedEarly {
		t.Fatalf("full-horizon run must not stop early: %+v", fstats)
	}

	early, err := monitor.NewRunner(factory, gpca.REQ1())
	if err != nil {
		t.Fatal(err)
	}
	early.EarlyStop = true
	er, estats, err := early.RunR(tc)
	if err != nil {
		t.Fatal(err)
	}
	requireSameR(t, "early-vs-full", fr, er)
	if !estats.StoppedEarly {
		t.Fatalf("early-stop run should have stopped early: %+v", estats)
	}
	if estats.StoppedAt >= estats.Horizon {
		t.Fatalf("StoppedAt %v should precede horizon %v", estats.StoppedAt, estats.Horizon)
	}
	if estats.KernelEvents >= fstats.KernelEvents {
		t.Fatalf("early stop should fire fewer kernel events: %d vs %d", estats.KernelEvents, fstats.KernelEvents)
	}
	last := estats.DecidedAt[0]
	for _, at := range estats.DecidedAt {
		if at > last {
			last = at
		}
	}
	if estats.StoppedAt != last {
		t.Fatalf("run should stop at the last decision instant: stopped %v, last decision %v", estats.StoppedAt, last)
	}
}

// TestGroupEarlyStop attaches two monitors with different bounds to one
// system; the run may stop only when BOTH are fully decided, and each
// must match its own post-hoc evaluation.
func TestGroupEarlyStop(t *testing.T) {
	factory := gpca.Factory(func() platform.Scheme { return platform.DefaultScheme1() })
	reqA := gpca.REQ1()
	reqB := gpca.REQ1()
	reqB.ID = "REQ1-tight"
	reqB.Bound = 1 * ms // everything slower than 1 ms fails — different verdicts, same events
	tc := genCase(t, 3, 11)

	runnerA, err := core.NewRunner(factory, reqA)
	if err != nil {
		t.Fatal(err)
	}
	monA, err := monitor.New(reqA, tc)
	if err != nil {
		t.Fatal(err)
	}
	monB, err := monitor.New(reqB, tc)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := runnerA.Setup(platform.RLevel, tc)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	g := monitor.NewGroup(monA, monB)
	g.Attach(sys, true)
	sys.Run(tc.Horizon(reqA))
	g.Flush(sys.Kernel.Now())

	if !g.Done() {
		t.Fatal("group must be done after flush")
	}
	if !reflect.DeepEqual(runnerA.Evaluate(sys, tc), monA.Results()) {
		t.Fatal("monitor A diverges from post-hoc on the same run")
	}
	runnerB := *runnerA
	runnerB.Req = reqB
	if !reflect.DeepEqual(runnerB.Evaluate(sys, tc), monB.Results()) {
		t.Fatal("monitor B diverges from post-hoc on the same run")
	}
	for i, s := range monB.Results() {
		if s.CObserved && s.Verdict != core.Fail {
			t.Fatalf("1ms bound should fail sample %d, got %v", i, s.Verdict)
		}
	}
}

// TestMonitorValidation covers constructor and wiring errors.
func TestMonitorValidation(t *testing.T) {
	req := gpca.REQ1()
	if _, err := monitor.New(req, core.TestCase{Stimuli: []sim.Time{100 * ms, 50 * ms}}); err == nil {
		t.Fatal("decreasing stimuli must be rejected")
	}
	bad := req
	bad.Bound = 0
	if _, err := monitor.New(bad, core.TestCase{Stimuli: []sim.Time{ms}}); err == nil {
		t.Fatal("invalid requirement must be rejected")
	}
	if _, err := monitor.NewRunner(nil, req); err == nil {
		t.Fatal("nil factory must be rejected")
	}
	mon, err := monitor.New(req, core.TestCase{Stimuli: []sim.Time{ms}})
	if err != nil {
		t.Fatal(err)
	}
	factory := gpca.Factory(func() platform.Scheme { return platform.DefaultScheme1() })
	sys, err := factory(platform.RLevel)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Shutdown()
	mon.Attach(sys, false)
	defer func() {
		if recover() == nil {
			t.Fatal("double attach must panic")
		}
	}()
	mon.Attach(sys, false)
}

// TestMonitorStatsSnapshot checks the counters are snapshots, not views.
func TestMonitorStatsSnapshot(t *testing.T) {
	tc := genCase(t, 2, 3)
	mon, err := monitor.New(gpca.REQ1(), tc)
	if err != nil {
		t.Fatal(err)
	}
	s1 := mon.Stats()
	if s1.Samples != 2 || s1.PeakInFlight != 2 {
		t.Fatalf("fresh stats wrong: %+v", s1)
	}
	s1.DecidedAt[0] = 123
	if mon.Stats().DecidedAt[0] == 123 {
		t.Fatal("DecidedAt must be copied")
	}
}
