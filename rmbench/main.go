// Command rmbench is rmtest's end-to-end benchmark. It runs one workload
// (one rmtest user command per iteration) from a single process through
// the public rmtest API and prints every metric by name and unit; the
// last line of standard output is a JSON summary.
//
// Usage, from the repository root:
//
//	bash rmbench/run.sh --workload tablei --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 is
// the separate traced run: it records spans and a CPU profile, replays
// every simulation unit through the public layer calls and prints the
// per-layer metrics. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"time"

	"rmtest/internal/sim"
)

// metric is a reported metric's name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of an untraced run, as BENCHMARK.json lists them.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"iter_ms_p50", "ms"},
	{"runs_per_s", "1/s"},
	{"max_rss_mb", "MB"},
}

// layers are the repository's modules whose CPU share is reported by
// name; samples in any other program package go to other.cpu_share.
var layers = []string{
	"sim", "rtos", "hw", "env", "codegen", "fourvar", "platform", "core",
	"monitor", "campaign", "tcgen", "faults", "statechart", "verify",
}

// perLayer are the metrics of a traced run, as BENCHMARK.json lists them.
var perLayer = func() []metric {
	ms := []metric{
		{"sim.events_per_run", "count"},
		{"sim.queue_ops_per_run", "count"},
		{"sim.virtual_s_per_run", "s"},
		{"sim.host_ns_per_event", "ns"},
		{"rtos.switches_per_run", "count"},
		{"rtos.preemptions_per_run", "count"},
		{"hw.sensor_samples_per_run", "count"},
		{"hw.actuator_commands_per_run", "count"},
		{"env.signal_changes_per_run", "count"},
		{"codegen.steps_per_run", "count"},
		{"codegen.transitions_per_run", "count"},
		{"fourvar.records_per_run", "count"},
		{"fourvar.transition_records_per_run", "count"},
		{"platform.build_us_p50", "us"},
		{"platform.shutdown_us_p50", "us"},
		{"platform.run_ms_p50", "ms"},
		{"platform.run_ms_p90", "ms"},
		{"core.evaluate_us_p50", "us"},
		{"core.annotate_us_p50", "us"},
		{"monitor.early_stop_event_ratio", "ratio"},
		{"campaign.cache_lookups_per_iter", "count"},
		{"campaign.cache_reuse_ratio", "ratio"},
		{"campaign.prefix_reuse_ratio", "ratio"},
		{"tcgen.evals_per_iter", "count"},
		{"tcgen.rounds_per_iter", "count"},
		{"faults.storm_isrs_per_run", "count"},
		{"verify.states_visited_per_iter", "count"},
		{"verify.check_ms_p50", "ms"},
	}
	for _, l := range append(layers, "other") {
		ms = append(ms, metric{l + ".cpu_share", "ratio"})
	}
	return append(ms,
		metric{"go.sched_share", "ratio"},
		metric{"go.gc_worker_share", "ratio"},
		metric{"go.runtime_share", "ratio"},
		metric{"go.gc_cpu_share", "ratio"},
		metric{"go.allocs_per_run", "count"},
		metric{"go.allocs_spread", "ratio"},
		metric{"go.alloc_mb_per_iter", "MB"},
		metric{"go.gc_cycles_per_iter", "count"},
		metric{"bench.trace_overhead", "ratio"},
		metric{"bench.profile_samples", "count"},
		metric{"bench.replayed_runs", "count"},
	)
}()

const (
	setupRounds = 3 // set-ups per untraced run; setup_s is their median
	minIters    = 3 // timed iterations per run, however slow
)

// result is one invocation's outcome.
type result struct {
	correct           bool
	attempted, failed int
	iterations        int                // timed (or, traced, per-pass) iterations
	metrics           map[string]float64 // the reported metrics
	extra             map[string]any     // results-file detail
	notes             []string           // human-readable lines
}

func newResult() *result {
	return &result{correct: true, metrics: map[string]float64{}, extra: map[string]any{}}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect. A failed iteration counts all its runs
// as failed operations (at least one).
func (r *result) fail(runs int, format string, args ...any) {
	r.correct = false
	r.failed += max(runs, 1)
	r.notef("FAIL: "+format, args...)
}

// record counts one iteration's operations.
func (r *result) record(out iterOut, err error) {
	r.attempted += max(out.runs, 1)
	if err != nil {
		r.fail(out.runs, "%v", err)
	}
}

// gate records a golden-seed iteration and compares its output with the
// repository goldens.
func (r *result) gate(w workload, out iterOut, err error) {
	r.attempted += max(out.runs, 1)
	if err == nil {
		err = w.check(out)
	}
	if err != nil {
		r.fail(out.runs, "golden check: %v", err)
	}
}

func main() {
	start := time.Now()
	workloadName := flag.String("workload", "", "workload to run: tablei, faultsweep, gen or layered")
	seed := flag.Uint64("seed", 1, "workload seed; every iteration seed derives from it")
	seconds := flag.Int("seconds", 25, "seconds of timed iterations")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	commit := flag.String("commit", "unknown", "commit the benchmark was built from, recorded in the results")
	outDir := flag.String("out", filepath.Join(".bench_build", "rmbench"), "directory for result, trace and profile files")
	flag.Parse()

	w, ok := findWorkload(*workloadName)
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "rmbench: need --workload tablei|faultsweep|gen|layered, --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	h := newHost(*commit, w.name, *seed)
	budget := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	specs := endToEnd
	if *traceFlag == 1 {
		specs = perLayer
		res, err = traced(w, *seed, budget, *outDir)
	} else {
		res = measure(w, *seed, budget, start)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmbench:", err)
		os.Exit(1)
	}
	h.Iterations = res.iterations
	if err := emit(h, res, specs, *traceFlag, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "rmbench:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// measure is the untraced run: set-up, the golden gate, then iterations
// for the time budget. It reports the end-to-end metrics.
func measure(w workload, seed uint64, budget time.Duration, start time.Time) *result {
	r := newResult()
	seeds := sim.NewRand(seed) // splitmix chain, as campaign.Seeds derives run seeds

	// Set-up compiles every chart and runs one warm-up iteration. It is
	// repeated and the median reported; the first round counts from
	// process start. The warm-up runs the golden seed, so every set-up does
	// the same work, and its output is held to the goldens untimed.
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = start
		}
		if err := w.precompile(); err != nil {
			r.fail(0, "precompile: %v", err)
		}
		out, err := w.run(goldenSeed, scope{})
		setups = append(setups, time.Since(t0).Seconds())
		r.gate(w, out, err)
	}

	var iterMS, iterCPU, iterRate []float64
	runs := 0
	steal0, ticks0 := cpuTicks()
	deadline := time.Now().Add(budget)
	for len(iterMS) < minIters || time.Now().Before(deadline) {
		t, c := time.Now(), cpuTime()
		out, err := w.run(seeds.Uint64(), scope{})
		d, dc := time.Since(t), cpuTime()-c
		r.record(out, err)
		if err == nil {
			runs += out.runs
			iterRate = append(iterRate, float64(out.runs)/d.Seconds())
		}
		iterMS = append(iterMS, float64(d.Nanoseconds())/1e6)
		iterCPU = append(iterCPU, float64(dc.Nanoseconds())/1e6)
	}
	steal1, ticks1 := cpuTicks()
	stolen := 0.0
	if ticks1 > ticks0 {
		stolen = float64(steal1-steal0) / float64(ticks1-ticks0)
	}
	r.extra["steal_share"] = stolen
	r.extra["iter_cpu_ms"] = iterCPU
	r.notef("iter_cpu_ms_p50 %.4f ms of process CPU; %.1f%% of machine CPU time stolen by the hypervisor", median(iterCPU), 100*stolen)
	n := len(iterMS)
	r.metrics["setup_s"] = median(setups)
	r.metrics["iter_ms_p50"] = median(iterMS)
	r.metrics["runs_per_s"] = median(iterRate)
	r.metrics["max_rss_mb"] = maxRSSMB()
	r.iterations = n
	r.extra["setup_s_rounds"] = setups
	r.extra["iter_ms"] = iterMS
	r.notef("iterations: %d timed, %d runs delivered", n, runs)
	if p90, ok := tailPercentile(iterMS, 0.9); ok {
		r.extra["iter_ms_p90"] = p90
		r.notef("iter_ms_p90 %.4f ms (n=%d)", p90, n)
	} else {
		r.notef("iter_ms_p90 n/a: n=%d iterations, needs %d beyond p90", n, minTail)
	}
	r.notef("fail_ratio %.6f (%d of %d operations)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	return r
}

// gcCPU reads the runtime's cumulative GC and total CPU-seconds estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// traced is the traced run. It runs the same iterations three times:
// A untraced (memory and GC counters, the overhead baseline), B with
// spans around every top-level call and a CPU profile, C as a replay of
// every simulation unit through the public layer calls, with spans and
// counters. B and C must reproduce A's outputs exactly.
func traced(w workload, seed uint64, budget time.Duration, outDir string) (*result, error) {
	r := newResult()
	seedRng := sim.NewRand(seed)
	if err := w.precompile(); err != nil {
		r.fail(0, "precompile: %v", err)
	}
	out, err := w.run(goldenSeed, scope{}) // warm-up
	r.gate(w, out, err)

	// A: untraced, for a third of the budget.
	var seeds []uint64
	var outsA []iterOut
	var wallA time.Duration
	var msA0, msA1 runtime.MemStats
	gc0, cpu0 := gcCPU()
	runtime.ReadMemStats(&msA0)
	deadline := time.Now().Add(budget / 3)
	for len(seeds) < 2 || time.Now().Before(deadline) {
		s := seedRng.Uint64()
		t := time.Now()
		out, err := w.run(s, scope{})
		wallA += time.Since(t)
		r.record(out, err)
		seeds, outsA = append(seeds, s), append(outsA, out)
	}
	runtime.ReadMemStats(&msA1)
	gc1, cpu1 := gcCPU()

	// B: the same iterations with spans and a CPU profile.
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var msB0, msB1 runtime.MemStats
	runtime.ReadMemStats(&msB0)
	var wallB time.Duration
	nondet := 0
	for i, s := range seeds {
		t := time.Now()
		sc, end := tr.root(i).begin(w.name)
		out, err := w.run(s, sc)
		end()
		wallB += time.Since(t)
		r.record(out, err)
		if err == nil && (out.out != outsA[i].out || out.counters != outsA[i].counters) {
			nondet++
			r.fail(out.runs, "nondeterminism: iteration %d (seed %d) differs between two runs", i, s)
		}
	}
	runtime.ReadMemStats(&msB1)
	pprof.StopCPUProfile()

	// C: replay every iteration unit by unit; the first one also through
	// the online monitor.
	rp := &replayer{}
	unitsFirst := 0
	for i, s := range seeds {
		rp.online = i == 0
		sc, end := tr.root(i).begin("replay")
		got, err := w.replay(s, sc, rp)
		end()
		if i == 0 {
			unitsFirst = len(rp.units)
		}
		if err != nil {
			r.fail(0, "replay of iteration %d: %v", i, err)
		} else if got != outsA[i].out {
			r.fail(outsA[i].runs, "replay of iteration %d (seed %d) differs from the untraced output", i, s)
		}
	}
	// Exactness: per-run counters of a second replay must repeat exactly.
	again := &replayer{}
	if got, err := w.replay(seeds[0], scope{}, again); err != nil {
		r.fail(0, "second replay: %v", err)
	} else if got != outsA[0].out || !slices.Equal(again.units, rp.units[:unitsFirst]) {
		nondet++
		r.fail(1, "nondeterminism: outputs or per-run counters of iteration 0 differ between two replays")
	}

	stacks, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-workers%d-seed%d", w.name, workers, seed))
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return nil, err
	}
	err = writeChrome(f, tr.spans, map[string]any{"workload": w.name, "seed": seed, "workers": workers})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	r.notef("trace written to %s.trace.json, CPU profile to %s.cpu.pprof", base, base)

	nIter := len(seeds)
	layerMetrics(r, tr.spans, rp, outsA, stacks)
	runsA := 0
	for _, o := range outsA {
		runsA += o.runs
	}
	m := r.metrics
	m["go.allocs_per_run"] = float64(msA1.Mallocs-msA0.Mallocs) / float64(max(runsA, 1))
	allocA, allocB := float64(msA1.Mallocs-msA0.Mallocs), float64(msB1.Mallocs-msB0.Mallocs)
	m["go.allocs_spread"] = math.Abs(allocB-allocA) / math.Max(allocA, 1)
	m["go.alloc_mb_per_iter"] = float64(msA1.TotalAlloc-msA0.TotalAlloc) / float64(nIter) / (1 << 20)
	m["go.gc_cycles_per_iter"] = float64(msA1.NumGC-msA0.NumGC) / float64(nIter)
	if cpu1 > cpu0 {
		m["go.gc_cpu_share"] = (gc1 - gc0) / (cpu1 - cpu0)
	}
	m["bench.trace_overhead"] = wallB.Seconds()/wallA.Seconds() - 1
	r.iterations = nIter
	r.extra["nondeterministic"] = nondet
	r.notef("iterations: %d per phase; allocations untraced %d, traced %d", nIter, msA1.Mallocs-msA0.Mallocs, msB1.Mallocs-msB0.Mallocs)
	r.notef("fail_ratio %.6f (%d of %d operations)", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	return r, nil
}

// layerMetrics fills the per-layer metrics from the replay's spans and
// counters, the untraced iterations' counters and the CPU profile.
func layerMetrics(r *result, spans []span, rp *replayer, outs []iterOut, stacks []stack) {
	m := r.metrics
	n := float64(max(len(rp.units), 1))
	var c unitCounters
	for _, u := range rp.units {
		c.Events += u.Events
		c.QueueOps += u.QueueOps
		c.Virtual += u.Virtual
		c.Switches += u.Switches
		c.Preempts += u.Preempts
		c.StormISRs += u.StormISRs
		c.SensorSamples += u.SensorSamples
		c.ActuatorCommands += u.ActuatorCommands
		c.SignalChanges += u.SignalChanges
		c.Steps += u.Steps
		c.Transitions += u.Transitions
		c.Records += u.Records
		c.TransTraced += u.TransTraced
	}
	m["sim.events_per_run"] = float64(c.Events) / n
	m["sim.queue_ops_per_run"] = float64(c.QueueOps) / n
	m["sim.virtual_s_per_run"] = c.Virtual.Seconds() / n
	m["rtos.switches_per_run"] = float64(c.Switches) / n
	m["rtos.preemptions_per_run"] = float64(c.Preempts) / n
	m["faults.storm_isrs_per_run"] = float64(c.StormISRs) / n
	m["hw.sensor_samples_per_run"] = float64(c.SensorSamples) / n
	m["hw.actuator_commands_per_run"] = float64(c.ActuatorCommands) / n
	m["env.signal_changes_per_run"] = float64(c.SignalChanges) / n
	m["codegen.steps_per_run"] = float64(c.Steps) / n
	m["codegen.transitions_per_run"] = float64(c.Transitions) / n
	m["fourvar.records_per_run"] = float64(c.Records) / n
	m["fourvar.transition_records_per_run"] = float64(c.TransTraced) / n
	m["bench.replayed_runs"] = float64(len(rp.units))

	ms := func(name string, scale time.Duration) []float64 {
		var out []float64
		for _, d := range durations(spans, name) {
			out = append(out, float64(d)/float64(scale))
		}
		return out
	}
	run := ms("platform.run", time.Millisecond)
	if c.Events > 0 {
		m["sim.host_ns_per_event"] = sum(run) * 1e6 / float64(c.Events)
	}
	m["platform.build_us_p50"] = median(ms("platform.build", time.Microsecond))
	m["platform.shutdown_us_p50"] = median(ms("platform.shutdown", time.Microsecond))
	m["platform.run_ms_p50"] = median(run)
	if p90, ok := tailPercentile(run, 0.9); ok {
		m["platform.run_ms_p90"] = p90
	} else {
		m["platform.run_ms_p90"] = 0
		r.notef("platform.run_ms_p90 reported as 0: n=%d replayed runs, needs %d beyond p90", len(run), minTail)
	}
	m["core.evaluate_us_p50"] = median(ms("core.evaluate", time.Microsecond))
	m["core.annotate_us_p50"] = median(ms("core.annotate", time.Microsecond))
	m["verify.check_ms_p50"] = median(ms("verify.check", time.Millisecond))
	if rp.postEvents > 0 {
		m["monitor.early_stop_event_ratio"] = float64(rp.onlineEvents) / float64(rp.postEvents)
	}

	var ic iterCounters
	for _, o := range outs {
		ic.CacheLookups += o.counters.CacheLookups
		ic.CacheReused += o.counters.CacheReused
		ic.PrefixSimNS += o.counters.PrefixSimNS
		ic.PrefixPlainNS += o.counters.PrefixPlainNS
		ic.Evals += o.counters.Evals
		ic.Rounds += o.counters.Rounds
		ic.Visited += o.counters.Visited
	}
	it := float64(len(outs))
	m["campaign.cache_lookups_per_iter"] = float64(ic.CacheLookups) / it
	if ic.CacheLookups > 0 {
		m["campaign.cache_reuse_ratio"] = float64(ic.CacheReused) / float64(ic.CacheLookups)
	}
	if ic.PrefixPlainNS > 0 {
		m["campaign.prefix_reuse_ratio"] = max(0, 1-float64(ic.PrefixSimNS)/float64(ic.PrefixPlainNS))
	}
	m["tcgen.evals_per_iter"] = float64(ic.Evals) / it
	m["tcgen.rounds_per_iter"] = float64(ic.Rounds) / it
	m["verify.states_visited_per_iter"] = float64(ic.Visited) / it
	r.notef("bases: %d replayed runs, %d iterations, %d cache lookups", len(rp.units), len(outs), ic.CacheLookups)

	// CPU shares: every sample lands in exactly one bucket, so the shares
	// must sum to one.
	buckets := attribute(stacks)
	var total int64
	for _, v := range buckets {
		total += v
	}
	m["bench.profile_samples"] = float64(total)
	share := func(b string) float64 {
		if total == 0 {
			return 0
		}
		return float64(buckets[b]) / float64(total)
	}
	named := map[string]bool{bucketSched: true, bucketGC: true, bucketRuntime: true}
	for _, l := range layers {
		m[l+".cpu_share"] = share(l)
		named[l] = true
	}
	other := map[string]float64{}
	for b := range buckets {
		if !named[b] {
			other[b] = share(b)
			m["other.cpu_share"] += share(b)
		}
	}
	m["go.sched_share"] = share(bucketSched)
	m["go.gc_worker_share"] = share(bucketGC)
	m["go.runtime_share"] = share(bucketRuntime)
	r.extra["other_cpu_share_by_module"] = other
	shareSum := 0.0
	for _, l := range append(layers, "other") {
		shareSum += m[l+".cpu_share"]
	}
	shareSum += m["go.sched_share"] + m["go.gc_worker_share"] + m["go.runtime_share"]
	if total > 0 && math.Abs(shareSum-1) > 1e-9 {
		r.fail(0, "cpu shares sum to %.12f, not 1", shareSum)
	}
	r.notef("cpu shares sum to %.6f over %d profile samples", shareSum, total)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric by name and unit, then the host record, then
// the JSON summary as the last line; it also writes the whole result to
// the results directory.
func emit(h host, r *result, specs []metric, traceMode int, outDir string) error {
	out := map[string]jsonMetric{}
	for _, s := range specs {
		v := r.metrics[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[s.name] = jsonMetric{Value: v, Unit: s.unit}
		fmt.Printf("%-12s %-38s %16.6f %s\n", h.Workload, s.name, v, s.unit)
	}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	hj, err := json.Marshal(h)
	if err != nil {
		return err
	}
	fmt.Printf("# host %s\n", hj)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(map[string]any{
		"host": h, "correct": r.correct, "attempted": r.attempted, "failed": r.failed,
		"metrics": out, "detail": r.extra, "notes": r.notes,
	}, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-workers%d-seed%d-trace%d.json", h.Workload, h.Workers, h.Seed, traceMode))
	if err := os.WriteFile(path, append(full, '\n'), 0o644); err != nil {
		return err
	}

	last, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}
