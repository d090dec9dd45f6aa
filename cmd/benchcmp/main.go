// Command benchcmp records and compares benchmark trajectories.
//
// It has two modes:
//
//	go test -bench ... -benchmem -run XXX . | go run ./cmd/benchcmp -record BENCH_kernel.json
//	go run ./cmd/benchcmp BENCH_old.json BENCH_new.json
//
// Record mode parses `go test -bench` text output from stdin into a
// stable JSON trajectory file. Repeated samples of one benchmark (from
// `go test -count N`) are recorded as one entry holding the median of
// every unit and the sample count. Compare mode prints per-benchmark deltas
// (benchstat-style, without the statistics) and exits non-zero when a
// regression exceeds the thresholds. A benchmark present in the
// baseline but missing from the current run is warned about on stderr
// and skipped — renaming or retiring benchmarks never fails the gate.
// Because ns/op is host-dependent while allocs/op and B/op are
// deterministic, the default policy fails only on allocation regressions
// (-max-alloc-regress, applied to both allocs/op and B/op); pass
// -max-ns-regress to also gate on time and -max-metric-regress to gate
// on custom b.ReportMetric counters (which are deterministic too). With
// -markdown the comparison renders as a GitHub-flavoured table, ready
// for a CI job summary ($GITHUB_STEP_SUMMARY).
//
// A recorded file carries the host it was measured on: the CPU from the
// `cpu:` header of the bench output, GOMAXPROCS from the benchmark name
// suffix, and the Go version benchcmp runs under.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's recorded numbers.
type Result struct {
	Name     string             `json:"name"`
	N        int64              `json:"n"`
	NsPerOp  float64            `json:"ns_per_op"`
	BPerOp   float64            `json:"b_per_op,omitempty"`
	AllocsOp float64            `json:"allocs_per_op,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
	// Samples is how many `-count` repetitions the medians are over.
	Samples int `json:"samples,omitempty"`
}

// Host describes the machine a trajectory was recorded on.
type Host struct {
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go_version,omitempty"`
}

// File is the trajectory file layout.
type File struct {
	// Note describes what the numbers are a baseline of.
	Note       string   `json:"note,omitempty"`
	Host       Host     `json:"host"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchLine matches e.g.
//
//	BenchmarkKernelScheduleFire-8   5000000   250.3 ns/op   16 B/op   1 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

// parseBench reads `go test -bench` output: the benchmark lines, and the
// host's CPU and GOMAXPROCS from the `cpu:` header and the name suffix.
func parseBench(r *bufio.Scanner) ([]Result, Host, error) {
	var out []Result
	var host Host
	for r.Scan() {
		line := strings.TrimSpace(r.Text())
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			host.CPU = cpu
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		// go test names a benchmark without a -N suffix at GOMAXPROCS 1.
		host.GOMAXPROCS = 1
		if m[2] != "" {
			host.GOMAXPROCS, _ = strconv.Atoi(m[2])
		}
		n, _ := strconv.ParseInt(m[3], 10, 64)
		res := Result{Name: m[1], N: n}
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, host, fmt.Errorf("benchcmp: bad value %q in %q", fields[i], r.Text())
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = val
			case "B/op":
				res.BPerOp = val
			case "allocs/op":
				res.AllocsOp = val
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = val
			}
		}
		out = append(out, res)
	}
	return out, host, r.Err()
}

func record(path, note string) error {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	results, host, err := parseBench(sc)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("benchcmp: no benchmark lines on stdin")
	}
	host.GoVersion = runtime.Version()
	results = medians(results)
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	data, err := json.MarshalIndent(File{Note: note, Host: host, Benchmarks: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// medians folds repeated samples of each benchmark into one result per
// name, taking the median of every unit.
func medians(results []Result) []Result {
	byName := map[string][]Result{}
	var names []string
	for _, r := range results {
		if _, ok := byName[r.Name]; !ok {
			names = append(names, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(names))
	for _, name := range names {
		rs := byName[name]
		med := func(get func(Result) float64) float64 {
			vs := make([]float64, len(rs))
			for i, r := range rs {
				vs[i] = get(r)
			}
			sort.Float64s(vs)
			if len(vs)%2 == 1 {
				return vs[len(vs)/2]
			}
			return (vs[len(vs)/2-1] + vs[len(vs)/2]) / 2
		}
		m := Result{
			Name:     name,
			N:        int64(med(func(r Result) float64 { return float64(r.N) })),
			NsPerOp:  med(func(r Result) float64 { return r.NsPerOp }),
			BPerOp:   med(func(r Result) float64 { return r.BPerOp }),
			AllocsOp: med(func(r Result) float64 { return r.AllocsOp }),
			Samples:  len(rs),
		}
		for unit := range rs[0].Metrics {
			if m.Metrics == nil {
				m.Metrics = map[string]float64{}
			}
			m.Metrics[unit] = med(func(r Result) float64 { return r.Metrics[unit] })
		}
		out = append(out, m)
	}
	return out
}

func load(path string) (map[string]Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchcmp: %s: %v", path, err)
	}
	out := make(map[string]Result, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		out[b.Name] = b
	}
	return out, nil
}

// delta returns the relative change new-vs-old in percent; +x%% is a
// regression for cost metrics.
func delta(oldV, newV float64) float64 {
	if oldV == 0 {
		if newV == 0 {
			return 0
		}
		return 100
	}
	return (newV - oldV) / oldV * 100
}

// compareOpts bundles the comparison policy: per-unit regression
// thresholds in percent (negative disables gating on that unit;
// maxAllocRegress gates allocs/op and B/op) and the output format.
type compareOpts struct {
	maxAllocRegress  float64
	maxNsRegress     float64
	maxMetricRegress float64
	markdown         bool
}

// row is one rendered comparison line.
type row struct {
	name, unit string
	o, n       float64
	oldMissing bool
	regressed  bool
}

func (r row) mark() string {
	if r.regressed {
		return "REGRESSION"
	}
	return ""
}

func compare(oldPath, newPath string, opts compareOpts) (failed bool, err error) {
	oldR, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newR, err := load(newPath)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(newR))
	for name := range newR {
		names = append(names, name)
	}
	sort.Strings(names)
	// A benchmark present in the baseline but absent from the current
	// run is a warning, never a gate failure: adding, renaming or
	// retiring benchmarks must not break the CI comparison. The warning
	// keeps the skip visible so a silently-vanished benchmark is still
	// noticed in the logs.
	missing := make([]string, 0)
	for name := range oldR {
		if _, ok := newR[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(os.Stderr, "benchcmp: warning: baseline benchmark %s missing from current run; skipping\n", name)
	}
	var rows []row
	for _, name := range names {
		n := newR[name]
		o, ok := oldR[name]
		if !ok {
			rows = append(rows, row{name: name, unit: "ns/op", n: n.NsPerOp, oldMissing: true})
			continue
		}
		units := []struct {
			unit     string
			o, n     float64
			maxDelta float64 // <0 disables gating
		}{
			{"ns/op", o.NsPerOp, n.NsPerOp, opts.maxNsRegress},
			{"B/op", o.BPerOp, n.BPerOp, opts.maxAllocRegress},
			{"allocs/op", o.AllocsOp, n.AllocsOp, opts.maxAllocRegress},
		}
		// Custom metrics (b.ReportMetric): compared whenever both sides
		// carry the metric, gated by -max-metric-regress.
		var metricUnits []string
		for unit := range n.Metrics {
			if _, both := o.Metrics[unit]; both {
				metricUnits = append(metricUnits, unit)
			}
		}
		sort.Strings(metricUnits)
		for _, unit := range metricUnits {
			units = append(units, struct {
				unit     string
				o, n     float64
				maxDelta float64
			}{unit, o.Metrics[unit], n.Metrics[unit], opts.maxMetricRegress})
		}
		for _, u := range units {
			d := delta(u.o, u.n)
			r := row{name: name, unit: u.unit, o: u.o, n: u.n}
			if u.maxDelta >= 0 && d > u.maxDelta {
				r.regressed = true
				failed = true
			}
			rows = append(rows, r)
		}
	}
	if opts.markdown {
		renderMarkdown(os.Stdout, rows)
	} else {
		renderText(os.Stdout, rows)
	}
	return failed, nil
}

func renderText(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-60s %14s %14s %9s\n", "benchmark", "old", "new", "delta")
	for _, r := range rows {
		if r.oldMissing {
			fmt.Fprintf(w, "%-60s %14s %14.4g %9s\n", r.name+" ["+r.unit+"]", "-", r.n, "new")
			continue
		}
		mark := ""
		if r.regressed {
			mark = "  " + r.mark()
		}
		fmt.Fprintf(w, "%-60s %14.4g %14.4g %+8.1f%%%s\n",
			r.name+" ["+r.unit+"]", r.o, r.n, delta(r.o, r.n), mark)
	}
}

// renderMarkdown emits the same comparison as a GitHub-flavoured table
// for CI job summaries.
func renderMarkdown(w io.Writer, rows []row) {
	fmt.Fprintln(w, "| benchmark | unit | old | new | delta | |")
	fmt.Fprintln(w, "|---|---|---:|---:|---:|---|")
	for _, r := range rows {
		if r.oldMissing {
			fmt.Fprintf(w, "| %s | %s | - | %.4g | new | |\n", r.name, r.unit, r.n)
			continue
		}
		mark := ""
		if r.regressed {
			mark = "**" + r.mark() + "**"
		}
		fmt.Fprintf(w, "| %s | %s | %.4g | %.4g | %+.1f%% | %s |\n",
			r.name, r.unit, r.o, r.n, delta(r.o, r.n), mark)
	}
}

func main() {
	recordPath := flag.String("record", "", "parse `go test -bench` output from stdin and write this JSON file")
	note := flag.String("note", "", "note stored in the recorded file")
	maxAllocRegress := flag.Float64("max-alloc-regress", 5, "fail when allocs/op or B/op regresses more than this percentage (negative disables)")
	maxNsRegress := flag.Float64("max-ns-regress", -1, "fail when ns/op regresses more than this percentage (negative disables; host-dependent)")
	maxMetricRegress := flag.Float64("max-metric-regress", 5, "fail when a custom b.ReportMetric unit regresses more than this percentage (negative disables)")
	markdown := flag.Bool("markdown", false, "render the comparison as a GitHub-flavoured markdown table (for CI job summaries)")
	flag.Parse()

	if *recordPath != "" {
		if err := record(*recordPath, *note); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp -record out.json < bench.txt | benchcmp old.json new.json")
		os.Exit(2)
	}
	failed, err := compare(flag.Arg(0), flag.Arg(1), compareOpts{
		maxAllocRegress:  *maxAllocRegress,
		maxNsRegress:     *maxNsRegress,
		maxMetricRegress: *maxMetricRegress,
		markdown:         *markdown,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}
