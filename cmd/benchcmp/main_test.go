package main

import (
	"bufio"
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
	rs, err := parseBench(bufio.NewScanner(strings.NewReader(out)))
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
