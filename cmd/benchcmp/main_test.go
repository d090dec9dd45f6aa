package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRecordFoldsRepeatedSamplesToMedians(t *testing.T) {
	out := `goos: linux
BenchmarkA-2   	     100	       300 ns/op	      16 B/op	       1 allocs/op	        10.0 allocs/run
BenchmarkA-2   	     100	       100 ns/op	      16 B/op	       1 allocs/op	        10.0 allocs/run
BenchmarkB/workers=1-2 	  5	  7 ns/op
BenchmarkA-2   	     300	       200 ns/op	      16 B/op	       2 allocs/op	        12.0 allocs/run
PASS
`
	rs, _, err := parseBench(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	got := medians(rs)
	if len(got) != 2 || got[0].Name != "BenchmarkA" || got[1].Name != "BenchmarkB/workers=1" {
		t.Fatalf("got %+v", got)
	}
	a := got[0]
	if a.Samples != 3 || a.NsPerOp != 200 || a.AllocsOp != 1 || a.N != 100 || a.Metrics["allocs/run"] != 10 {
		t.Fatalf("BenchmarkA medians = %+v", a)
	}
	if b := got[1]; b.Samples != 1 || b.NsPerOp != 7 {
		t.Fatalf("BenchmarkB = %+v", b)
	}
}

func TestRecordParsesHost(t *testing.T) {
	out := `goos: linux
cpu: Intel(R) Xeon(R) Processor
BenchmarkA-4   	     100	       300 ns/op
`
	_, host, err := parseBench(bufio.NewScanner(strings.NewReader(out)))
	if err != nil {
		t.Fatal(err)
	}
	if host.CPU != "Intel(R) Xeon(R) Processor" || host.GOMAXPROCS != 4 {
		t.Fatalf("host = %+v", host)
	}
}

// TestCompareGatesBytesPerOp: -max-alloc-regress gates B/op as well as
// allocs/op, so a byte regression with unchanged allocs/op fails.
func TestCompareGatesBytesPerOp(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, bytes, allocs float64) string {
		data, err := json.Marshal(File{Benchmarks: []Result{{Name: "BenchmarkA", NsPerOp: 100, BPerOp: bytes, AllocsOp: allocs}}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("old.json", 1000, 10)
	for _, c := range []struct {
		name          string
		bytes, allocs float64
		budget        float64
		fail          bool
	}{
		{"within budget", 1040, 10, 5, false},
		{"bytes regress", 1100, 10, 5, true},
		{"allocs regress", 1000, 11, 5, true},
		{"bytes improve", 400, 10, 5, false},
		{"gate disabled", 3000, 30, -1, false},
	} {
		cur := write("new.json", c.bytes, c.allocs)
		failed, err := compare(base, cur, compareOpts{maxAllocRegress: c.budget, maxNsRegress: -1, maxMetricRegress: -1})
		if err != nil {
			t.Fatal(err)
		}
		if failed != c.fail {
			t.Errorf("%s: failed=%v, want %v", c.name, failed, c.fail)
		}
	}
}
