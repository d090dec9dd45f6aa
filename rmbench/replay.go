package main

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"rmtest"
	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/faults"
	"rmtest/internal/gpca"
	"rmtest/internal/monitor"
	"rmtest/internal/platform"
	"rmtest/internal/railcrossing"
	"rmtest/internal/sim"
	"rmtest/internal/tcgen"
)

// unitCounters are the exact counters of one replayed simulation run,
// read from each layer's public counters when the run ends.
type unitCounters struct {
	Events, QueueOps     uint64   // sim kernel
	Virtual              sim.Time // sim clock at run end
	Switches, Preempts   uint64   // rtos scheduler
	StormISRs            uint64   // faults: ISR-storm interrupts
	SensorSamples        uint64   // hw
	ActuatorCommands     uint64   // hw
	SignalChanges        uint64   // env
	Steps, Transitions   uint64   // codegen VM
	Records, TransTraced int      // fourvar traces
}

func countersOf(sys *platform.System) unitCounters {
	push, pop, rm := sys.Kernel.QueueOps()
	c := unitCounters{
		Events: sys.Kernel.EventsFired(), QueueOps: push + pop + rm,
		Virtual:  sys.Kernel.Now(),
		Switches: sys.Sched.ContextSwitches(), Preempts: sys.Sched.Preemptions(),
		StormISRs: sys.Sched.StormISRs(),
		Steps:     sys.Exec.Steps(), Transitions: sys.Exec.TransitionsTaken(),
		Records: sys.Trace.Len(), TransTraced: len(sys.TransTrace.Records()),
	}
	for _, n := range sys.Board.SensorNames() {
		c.SensorSamples += sys.Board.LookupSensor(n).Samples()
	}
	for _, n := range sys.Board.ActuatorNames() {
		c.ActuatorCommands += sys.Board.LookupActuator(n).Commands()
	}
	for _, n := range sys.Env.Names() {
		c.SignalChanges += sys.Env.Lookup(n).Changes()
	}
	return c
}

// replayer re-executes simulation units one at a time through the
// layers' public calls, with a span around each call, and collects
// every unit's counters.
type replayer struct {
	units []unitCounters
	// online also runs every R-level unit through the online monitor with
	// early stop and sums kernel events of both engines.
	online                   bool
	onlineEvents, postEvents uint64
}

// unitResult is one replayed run's verdicts.
type unitResult struct {
	scheme  string
	samples []core.SampleResult
	m       *core.MResult // set for M-level runs
}

// unit replays one run: build the system and apply the stimuli, run it
// to the test case's horizon, extract verdicts (and M segments), read the
// counters and shut it down.
func (rp *replayer) unit(s scope, runner *core.Runner, level platform.Instrument, tc core.TestCase) (unitResult, error) {
	s, endUnit := s.begin("unit")
	defer endUnit()
	_, end := s.begin("platform.build")
	sys, err := runner.Setup(level, tc)
	end()
	if err != nil {
		return unitResult{}, err
	}
	_, end = s.begin("platform.run")
	sys.Run(tc.Horizon(runner.Req))
	end()
	_, end = s.begin("core.evaluate")
	res := unitResult{scheme: sys.SchemeName(), samples: runner.Evaluate(sys, tc)}
	end()
	if level == platform.MLevel {
		_, end = s.begin("core.annotate")
		m := runner.AnnotateM(sys, tc, res.samples)
		end()
		res.m = &m
	}
	c := countersOf(sys)
	rp.units = append(rp.units, c)
	_, end = s.begin("platform.shutdown")
	sys.Shutdown()
	end()

	if rp.online && level == platform.RLevel {
		_, end = s.begin("monitor.RunR")
		on := &monitor.Runner{Post: runner, EarlyStop: true}
		rr, st, err := on.RunR(tc)
		end()
		if err != nil {
			return unitResult{}, err
		}
		if !reflect.DeepEqual(rr.Samples, res.samples) {
			return unitResult{}, fmt.Errorf("replay: online verdicts differ from post-hoc on %s", res.scheme)
		}
		rp.onlineEvents += st.KernelEvents
		rp.postEvents += c.Events
	}
	return res, nil
}

// report wraps a replayed R and M unit in the shape the rmtest renderers
// take, as core.Runner.RunRM builds it.
func report(req core.Requirement, tc core.TestCase, r, m unitResult) core.Report {
	rr := core.RResult{Requirement: req, Scheme: r.scheme, Case: tc, Samples: r.samples}
	return core.Report{R: rr, M: m.m, Diagnosis: core.Diagnose(*m.m)}
}

// replayTableI replays Table I (three R runs, three forced M runs) and the
// nine requirements-matrix cells.
func replayTableI(seed uint64, s scope, rp *replayer) (string, error) {
	pb, err := gpca.Precompile()
	if err != nil {
		return "", err
	}
	sc := &platform.Scratch{}
	req := gpca.REQ1()
	tc, err := jitteredCase(req, 10, seed)
	if err != nil {
		return "", err
	}
	var rs []unitResult
	var runners []*core.Runner
	for _, mk := range schemes {
		runner, err := core.NewRunner(gpca.FactoryPrebuilt(pb, mk, sc), req)
		if err != nil {
			return "", err
		}
		u, err := rp.unit(s, runner, platform.RLevel, tc)
		if err != nil {
			return "", err
		}
		rs, runners = append(rs, u), append(runners, runner)
	}
	var reps []core.Report
	for i, runner := range runners {
		m, err := rp.unit(s, runner, platform.MLevel, tc)
		if err != nil {
			return "", err
		}
		reps = append(reps, report(req, tc, rs[i], m))
	}
	var cells []rmtest.MatrixCell
	for _, req := range []core.Requirement{gpca.REQ1(), gpca.REQ2(), gpca.REQ3()} {
		for _, mk := range schemes {
			runner, err := core.NewRunner(gpca.FactoryPrebuilt(pb, mk, sc), req)
			if err != nil {
				return "", err
			}
			tc, err := matrixCase(runner, 4, seed)
			if err != nil {
				return "", err
			}
			u, err := rp.unit(s, runner, platform.RLevel, tc)
			if err != nil {
				return "", err
			}
			cells = append(cells, tally(req.ID, u))
		}
	}
	return rmtest.RenderCSV(reps) + renderCells(cells), nil
}

// matrixCase builds a requirements-matrix cell's test case, and for REQ3
// the alarm script, as rmtest.RequirementsMatrix does.
func matrixCase(runner *core.Runner, samples int, seed uint64) (core.TestCase, error) {
	switch runner.Req.ID {
	case "REQ2":
		// The empty condition is a persistent level; one sample.
		return core.TestCase{Name: "REQ2", Stimuli: []sim.Time{100 * time.Millisecond}}, nil
	case "REQ3":
		// Raise the alarm 300 ms before each clear press, then drop the
		// condition so the next cycle re-alarms.
		runner.Prepare = func(sys *platform.System, tc core.TestCase) {
			for _, at := range tc.Stimuli {
				sys.Env.PulseAt(at-300*time.Millisecond, gpca.SigReservoirEmpty, 1, 0, 600*time.Millisecond)
			}
		}
		return core.Generator{
			N: samples, Start: 500 * time.Millisecond, Spacing: 2 * time.Second,
			Strategy: core.JitteredSpacing, Jitter: 100 * time.Millisecond, Seed: seed,
		}.Generate(runner.Req)
	}
	return jitteredCase(runner.Req, samples, seed)
}

func tally(reqID string, u unitResult) rmtest.MatrixCell {
	c := rmtest.MatrixCell{Requirement: reqID, Scheme: u.scheme}
	for _, s := range u.samples {
		switch s.Verdict {
		case core.Pass:
			c.Pass++
		case core.Fail:
			c.Fail++
		case core.Max:
			c.Max++
		}
	}
	return c
}

// replayFaultSweep replays the sweep's M-level scheme-2 runs, one per
// catalogue plan, with each plan's fault hooks seeded from the campaign
// seed chain as rmtest.FaultSweep seeds them.
func replayFaultSweep(seed uint64, s scope, rp *replayer) (string, error) {
	pb, err := gpca.Precompile()
	if err != nil {
		return "", err
	}
	sc := &platform.Scratch{}
	req := gpca.REQ1()
	tc, err := jitteredCase(req, 10, seed)
	if err != nil {
		return "", err
	}
	plans := rmtest.FaultCatalog(tc.Horizon(req))
	seeds := campaign.Seeds(seed, len(plans))
	var ms []core.MResult
	for i, plan := range plans {
		runner, err := core.NewRunner(gpca.FactoryPrebuilt(pb, schemes[1], sc), req)
		if err != nil {
			return "", err
		}
		runner.Prepare = faults.Prepare(plan, seeds[i])
		u, err := rp.unit(s, runner, platform.MLevel, tc)
		if err != nil {
			return "", err
		}
		ms = append(ms, *u.m)
	}
	var attrs []rmtest.FaultAttribution
	for i, plan := range plans {
		attrs = append(attrs, faults.Attribute(plan, ms[0], ms[i]))
	}
	return rmtest.RenderFaultCSV(attrs), nil
}

// replayGen replays the generation pipeline strategy by strategy through
// the tcgen generators, as rmtest.GenerateSuite drives them. Candidate
// runs happen inside tcgen, so gen contributes no per-run counters.
func replayGen(seed uint64, s scope, _ *replayer) (string, error) {
	cache := rmtest.NewEvalCache(4096)
	sink := &rmtest.PrefixStatsSink{}
	opts := func(seed uint64) tcgen.Options {
		return tcgen.Options{Seed: seed, Workers: workers, Cache: cache, PrefixStats: sink}
	}
	seeds := sim.NewRand(seed)
	var runs []rmtest.GenRun
	for _, c := range genCases() {
		cs, endChart := s.begin("chart." + c.chart)
		_, end := cs.begin("platform.Precompile")
		pb, err := c.pre()
		end()
		if err != nil {
			endChart()
			return "", err
		}
		target := tcgen.Target{
			Prebuilt: pb, Req: c.req,
			PhasePeriod: platform.DefaultScheme2().CodePeriod, Bins: 8,
			Settle: c.settle, SampleAux: c.aux,
		}
		run := rmtest.GenRun{Chart: c.chart}
		step := func(name string, g tcgen.Generator, seed uint64) (tcgen.Result, error) {
			_, end := cs.begin(name)
			defer end()
			res, err := g.Generate(target, opts(seed))
			run.Results = append(run.Results, res)
			return res, err
		}
		target.Scheme = schemes[1]
		_, err = step("tcgen.coverage", tcgen.CoverageDirected(), seeds.Uint64())
		if err == nil {
			target.Scheme = schemes[2]
			var fal tcgen.Result
			fal, err = step("tcgen.falsify", tcgen.Falsification(), seeds.Uint64())
			shrinkSeed := seeds.Uint64()
			if err == nil && fal.Violated {
				_, err = step("tcgen.shrink", tcgen.Shrinker(fal.Schedule), shrinkSeed)
			}
		}
		endChart()
		if err != nil {
			return "", err
		}
		runs = append(runs, run)
	}
	out, err := genOut(runs, cache, sink)
	return out.out, err
}

// genCase is one chart of the generation pipeline, as rmtest.GenerateSuite
// configures it.
type genCase struct {
	chart  string
	pre    func() (*platform.Prebuilt, error)
	req    core.Requirement
	settle sim.Time
	aux    []tcgen.Stimulus
}

func genCases() []genCase {
	return []genCase{
		{chart: "gpca", pre: gpca.Precompile, req: gpca.REQ1(), settle: 4500 * time.Millisecond},
		{
			chart:  "crossing",
			pre:    func() (*platform.Prebuilt, error) { return platform.Precompile(railcrossing.PlatformConfig()) },
			req:    railcrossing.GateRequirement(),
			settle: 7500 * time.Millisecond,
			aux: []tcgen.Stimulus{{
				Signal: railcrossing.SigClear, Value: 1, Rest: 0,
				Width: 300 * time.Millisecond, At: 3500 * time.Millisecond,
			}},
		},
	}
}

// replayLayered replays each requirement's model check and its R and M
// runs on scheme 3, building every system with gpca.Factory as the
// rmtest command does.
func replayLayered(seed uint64, s scope, rp *replayer) (string, error) {
	var out strings.Builder
	for _, l := range layeredReqs {
		_, end := s.begin("verify.check")
		res, err := verifyLayered(l.prop)
		end()
		if err != nil {
			return "", err
		}
		req := l.req()
		tc, err := jitteredCase(req, 10, seed)
		if err != nil {
			return "", err
		}
		runner, err := core.NewRunner(gpca.Factory(schemes[2]), req)
		if err != nil {
			return "", err
		}
		r, err := rp.unit(s, runner, platform.RLevel, tc)
		if err != nil {
			return "", err
		}
		m, err := rp.unit(s, runner, platform.MLevel, tc)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&out, "%s\n%s", res, rmtest.RenderCSV([]rmtest.Report{report(req, tc, r, m)}))
	}
	return out.String(), nil
}
