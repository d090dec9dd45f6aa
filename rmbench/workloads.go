package main

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"rmtest"
	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/gpca"
	"rmtest/internal/platform"
	"rmtest/internal/railcrossing"
)

// workers is the campaign worker count of every workload. It is fixed,
// not derived from GOMAXPROCS, so a result's name and its work do not
// depend on the host; 2 is the core count of the machine the bounds in
// BENCHMARK.json were set on.
const workers = 2

// goldenSeed is the seed the repository's golden outputs were recorded at.
const goldenSeed = 42

// iterCounters are the iteration-level counters of one iteration. Every
// field is exact: the same seed must reproduce it.
type iterCounters struct {
	CacheLookups, CacheReused  uint64 // reused = hits + in-batch dedups
	PrefixSimNS, PrefixPlainNS int64  // prefix-sharing virtual time, shared vs plain
	Evals, Rounds              int    // tcgen search effort
	Visited                    int    // model-checker states
}

// iterOut is what one iteration delivers.
type iterOut struct {
	runs     int    // simulation runs delivered, executed or cached; property checks count too
	out      string // rendered outputs; a replay must reproduce them exactly
	counters iterCounters
}

// workload is one user command, run once per iteration on one seed.
type workload struct {
	name string
	// precompile compiles every chart the workload uses.
	precompile func() error
	// run executes one iteration, opening a span around each top-level
	// call under s.
	run func(seed uint64, s scope) (iterOut, error)
	// check compares the golden-seed output with the repository goldens.
	check func(out iterOut) error
	// replay re-executes the iteration's simulation units through the
	// public layer calls and returns the rendered outputs it reproduces.
	replay func(seed uint64, s scope, rp *replayer) (string, error)
}

var workloads = []workload{
	{
		name:       "tablei",
		precompile: precompileGPCA,
		run:        runTableI,
		check:      checkGolden("testdata/tablei_seed42_prepr.csv", "testdata/matrix_s4_seed42_prepr.csv"),
		replay:     replayTableI,
	},
	{
		name:       "faultsweep",
		precompile: precompileGPCA,
		run:        runFaultSweep,
		check:      checkGolden("testdata/faults_seed42.csv"),
		replay:     replayFaultSweep,
	},
	{
		name:       "gen",
		precompile: precompileGen,
		run:        runGen,
		check:      checkGolden("testdata/gen_seed42.csv"),
		replay:     replayGen,
	},
	{
		name:       "layered",
		precompile: precompileGPCA,
		run:        runLayered,
		check:      checkLayered,
		replay:     replayLayered,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func precompileGPCA() error {
	_, err := gpca.Precompile()
	return err
}

func precompileGen() error {
	if err := precompileGPCA(); err != nil {
		return err
	}
	_, err := platform.Precompile(railcrossing.PlatformConfig())
	return err
}

// checkGolden returns a check that the iteration's rendered output is
// the concatenation of the named golden files.
func checkGolden(files ...string) func(iterOut) error {
	return func(out iterOut) error {
		var want strings.Builder
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return fmt.Errorf("golden: %w", err)
			}
			want.Write(b)
		}
		if out.out != want.String() {
			return fmt.Errorf("output differs from %s", strings.Join(files, " + "))
		}
		return nil
	}
}

// jitteredCase is the Table I generator: n stimuli 4.5 s apart with up to
// 200 ms of seeded jitter. The Table I experiment, the fault sweep and the
// rmtest command all use it.
func jitteredCase(req core.Requirement, n int, seed uint64) (core.TestCase, error) {
	return core.Generator{
		N: n, Start: 50 * time.Millisecond,
		Spacing:  4500 * time.Millisecond,
		Strategy: core.JitteredSpacing, Jitter: 200 * time.Millisecond,
		Seed: seed,
	}.Generate(req)
}

var schemes = []func() platform.Scheme{
	func() platform.Scheme { return platform.DefaultScheme1() },
	func() platform.Scheme { return platform.DefaultScheme2() },
	func() platform.Scheme { return platform.DefaultScheme3() },
}

func renderCells(cells []rmtest.MatrixCell) string {
	var b strings.Builder
	for _, c := range cells {
		fmt.Fprintf(&b, "%s,%s,%d,%d,%d\n", c.Requirement, c.Scheme, c.Pass, c.Fail, c.Max)
	}
	return b.String()
}

// runTableI is `tablei -matrix`: Table I with forced M-testing, then the
// requirements matrix at four samples.
func runTableI(seed uint64, s scope) (iterOut, error) {
	_, end := s.begin("rmtest.TableIExperiment")
	reps, err := rmtest.TableIExperiment(rmtest.TableIOptions{Samples: 10, Seed: seed, ForceM: true, Workers: workers})
	end()
	if err != nil {
		return iterOut{}, err
	}
	_, end = s.begin("rmtest.RequirementsMatrix")
	cells, err := rmtest.RequirementsMatrix(4, seed, workers)
	end()
	if err != nil {
		return iterOut{}, err
	}
	runs := len(reps) + len(cells)
	for _, r := range reps {
		if r.M == nil {
			return iterOut{}, errors.New("tablei: forced M-testing produced no M result")
		}
		runs++
	}
	if len(reps) != 3 || len(cells) != 9 {
		return iterOut{}, fmt.Errorf("tablei: %d reports and %d cells, want 3 and 9", len(reps), len(cells))
	}
	return iterOut{runs: runs, out: rmtest.RenderCSV(reps) + renderCells(cells)}, nil
}

// runFaultSweep is `tablei -faults` with the command's default cache.
func runFaultSweep(seed uint64, s scope) (iterOut, error) {
	cache := rmtest.NewEvalCache(4096)
	sink := &rmtest.PrefixStatsSink{}
	_, end := s.begin("rmtest.FaultSweep")
	res, err := rmtest.FaultSweep(rmtest.FaultSweepOptions{
		Samples: 10, Seed: seed, Workers: workers, Cache: cache, PrefixStats: sink,
	})
	end()
	if err != nil {
		return iterOut{}, err
	}
	if len(res.Results) != len(res.Attributions) || len(res.Results) == 0 {
		return iterOut{}, fmt.Errorf("faultsweep: %d results for %d attributions", len(res.Results), len(res.Attributions))
	}
	return iterOut{
		runs:     len(res.Results),
		out:      rmtest.RenderFaultCSV(res.Attributions),
		counters: cacheCounters(cache.Stats(), sink.Stats()),
	}, nil
}

func cacheCounters(c campaign.CacheStats, p campaign.PrefixStats) iterCounters {
	return iterCounters{
		CacheLookups: c.Lookups(), CacheReused: c.Hits + c.Deduped,
		PrefixSimNS: p.SimTime, PrefixPlainNS: p.PlainTime,
	}
}

// runGen is `rmtest gen` with its defaults: default budgets, post-hoc
// verdicts, a 4096-entry cache and no prefix sharing.
func runGen(seed uint64, s scope) (iterOut, error) {
	cache := rmtest.NewEvalCache(4096)
	sink := &rmtest.PrefixStatsSink{}
	_, end := s.begin("rmtest.GenerateSuite")
	runs, err := rmtest.GenerateSuite(rmtest.GenSuiteOptions{Seed: seed, Workers: workers, Cache: cache, PrefixStats: sink})
	end()
	if err != nil {
		return iterOut{}, err
	}
	return genOut(runs, cache, sink)
}

func genOut(runs []rmtest.GenRun, cache *rmtest.EvalCache, sink *rmtest.PrefixStatsSink) (iterOut, error) {
	if len(runs) != 2 {
		return iterOut{}, fmt.Errorf("gen: %d chart runs, want 2", len(runs))
	}
	c := cacheCounters(cache.Stats(), sink.Stats())
	for _, r := range runs {
		for _, res := range r.Results {
			c.Evals += res.Evals
			c.Rounds += res.Rounds
		}
	}
	return iterOut{runs: c.Evals, out: rmtest.RenderGenCSV(runs), counters: c}, nil
}

// layeredReqs are the requirements of the layered workload with the
// model-level property the rmtest command checks for each.
var layeredReqs = []struct {
	req  func() core.Requirement
	prop rmtest.ResponseProperty
}{
	{gpca.REQ1, rmtest.ResponseProperty{
		Name: "REQ1-model", Event: "i_BolusReq", InState: "Idle",
		Output: "o_MotorState", Target: func(v int64) bool { return v >= 1 },
		TargetDesc: ">= 1", WithinTicks: 100,
	}},
	{gpca.REQ2, rmtest.ResponseProperty{
		Name: "REQ2-model", Event: "i_EmptyAlarm", InState: "Idle",
		Output: "o_BuzzerState", Target: func(v int64) bool { return v == 1 },
		TargetDesc: "== 1", WithinTicks: 250,
	}},
	{gpca.REQ3, rmtest.ResponseProperty{
		Name: "REQ3-model", Event: "i_ClearAlarm", InState: "EmptyAlarm",
		Output: "o_BuzzerState", Target: func(v int64) bool { return v == 0 },
		TargetDesc: "== 0", WithinTicks: 200,
	}},
}

// verifyLayered model-checks one requirement's property; anything but
// Holds is an output mismatch.
func verifyLayered(prop rmtest.ResponseProperty) (rmtest.VerifyResult, error) {
	res, err := rmtest.VerifyResponse(rmtest.PumpChart(), prop, rmtest.VerifyOptions{})
	if err != nil {
		return res, err
	}
	if res.Outcome != rmtest.Holds {
		return res, fmt.Errorf("layered: %s is %v, want holds", prop.Name, res.Outcome)
	}
	return res, nil
}

// runLayered is `rmtest -req REQk -scheme 3 -force-m` for k = 1, 2, 3:
// model checking, then R-testing, then forced M-testing.
func runLayered(seed uint64, s scope) (iterOut, error) {
	var out strings.Builder
	it := iterOut{}
	for _, l := range layeredReqs {
		_, end := s.begin("rmtest.VerifyResponse")
		res, err := verifyLayered(l.prop)
		end()
		if err != nil {
			return iterOut{}, err
		}
		it.counters.Visited += res.Visited
		req := l.req()
		tc, err := jitteredCase(req, 10, seed)
		if err != nil {
			return iterOut{}, err
		}
		runner, err := rmtest.NewRunner(gpca.Factory(schemes[2]), req)
		if err != nil {
			return iterOut{}, err
		}
		_, end = s.begin("rmtest.Runner.RunRM")
		rep, err := runner.RunRM(tc, true)
		end()
		if err != nil {
			return iterOut{}, err
		}
		if rep.M == nil {
			return iterOut{}, errors.New("layered: forced M-testing produced no M result")
		}
		it.runs += 3 // the property check, the R run and the M run
		fmt.Fprintf(&out, "%s\n%s", res, rmtest.RenderCSV([]rmtest.Report{rep}))
	}
	it.out = out.String()
	return it, nil
}

// checkLayered holds the golden-seed REQ1 result to the Table I golden's
// scheme-3 rows, which use the same generator parameters; every property
// holds, or the iteration would have failed already.
func checkLayered(out iterOut) error {
	b, err := os.ReadFile("testdata/tablei_seed42_prepr.csv")
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	want := lines[0]
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "scheme3,") {
			want += l
		}
	}
	_, rest, _ := strings.Cut(out.out, "\n") // skip REQ1's verification line
	if !strings.HasPrefix(rest, want) {
		return errors.New("layered: REQ1 scheme-3 result differs from the Table I golden's scheme-3 rows")
	}
	return nil
}
