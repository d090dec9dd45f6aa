package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

// Minimal protobuf writers for building a synthetic pprof profile.
func pbKey(b []byte, num, wire int) []byte { return binary.AppendUvarint(b, uint64(num<<3|wire)) }

func pbVarint(b []byte, num int, v uint64) []byte {
	return binary.AppendUvarint(pbKey(b, num, 0), v)
}

func pbBytes(b []byte, num int, data []byte) []byte {
	return append(binary.AppendUvarint(pbKey(b, num, 2), uint64(len(data))), data...)
}

func pbPacked(b []byte, num int, vs []uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(b, num, p)
}

// syntheticProfile encodes samples given as stacks of function names,
// innermost first. A stack element holding several names separated by
// "|" is one location with inlined frames, innermost first.
func syntheticProfile(t *testing.T, samples []stack) []byte {
	t.Helper()
	var prof []byte
	strs := []string{""}
	fnID := map[string]uint64{}
	locID := map[string]uint64{}
	for i, s := range samples {
		var locs []uint64
		for _, loc := range s.frames {
			if _, ok := locID[loc]; !ok {
				id := uint64(len(locID) + 1)
				locID[loc] = id
				l := pbVarint(nil, 1, id)
				for _, fn := range splitInline(loc) {
					if _, ok := fnID[fn]; !ok {
						fnID[fn] = uint64(len(fnID) + 1)
						strs = append(strs, fn)
						f := pbVarint(nil, 1, fnID[fn])
						f = pbVarint(f, 2, uint64(len(strs)-1))
						prof = pbBytes(prof, 5, f)
					}
					l = pbBytes(l, 4, pbVarint(nil, 1, fnID[fn]))
				}
				prof = pbBytes(prof, 4, l)
			}
			locs = append(locs, locID[loc])
		}
		var sm []byte
		if i%2 == 0 {
			sm = pbPacked(sm, 1, locs)
			sm = pbPacked(sm, 2, []uint64{uint64(s.count), uint64(s.count) * 10_000_000})
		} else { // unpacked repeated fields are valid protobuf too
			for _, l := range locs {
				sm = pbVarint(sm, 1, l)
			}
			sm = pbVarint(sm, 2, uint64(s.count))
		}
		prof = pbBytes(prof, 2, sm)
	}
	for _, s := range strs {
		prof = pbBytes(prof, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func splitInline(loc string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(loc); i++ {
		if i == len(loc) || loc[i] == '|' {
			out = append(out, loc[start:i])
			start = i + 1
		}
	}
	return out
}

func TestAttributeSyntheticProfile(t *testing.T) {
	samples := []stack{
		// Runtime frames are charged to their nearest program caller.
		{frames: []string{"runtime.mallocgc", "rmtest/internal/sim.(*Kernel).Run", "runtime.goexit"}, count: 3},
		// The innermost program frame wins over outer ones.
		{frames: []string{"runtime.selectgo", "rmtest/internal/rtos.(*Task).Compute", "rmtest/internal/sim.(*Kernel).Run"}, count: 5},
		// Scheduler stack: no program frame above runtime.mcall.
		{frames: []string{"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, count: 2},
		// GC background worker.
		{frames: []string{"runtime.scanobject", "runtime.gcBgMarkWorker", "runtime.goexit"}, count: 4},
		// Runtime-only work that is neither.
		{frames: []string{"runtime.futex", "runtime.goexit"}, count: 1},
		// An inlined standard-library frame inside the rmtest facade.
		{frames: []string{"runtime.memmove|rmtest.TableIExperiment", "main.main"}, count: 6},
		// The benchmark's own frames.
		{frames: []string{"main.main"}, count: 7},
		// A nested package path still names its module.
		{frames: []string{"rmtest/internal/statechart.(*Machine).Step", "rmtest/internal/verify.CheckResponse"}, count: 8},
	}
	stacks, err := parseProfile(syntheticProfile(t, samples))
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != len(samples) {
		t.Fatalf("decoded %d samples, want %d", len(stacks), len(samples))
	}
	if got := stacks[5].frames; len(got) != 3 || got[0] != "runtime.memmove" || got[1] != "rmtest.TableIExperiment" {
		t.Fatalf("inlined frames decoded as %v, want innermost first", got)
	}
	got := attribute(stacks)
	want := map[string]int64{
		"sim": 3, "rtos": 5, bucketSched: 2, bucketGC: 4, bucketRuntime: 1,
		"rmtest": 6, "rmbench": 7, "statechart": 8,
	}
	var total int64
	for k, v := range want {
		if got[k] != v {
			t.Errorf("bucket %s = %d, want %d", k, got[k], v)
		}
		total += v
	}
	var gotTotal int64
	for _, v := range got {
		gotTotal += v
	}
	if gotTotal != total || len(got) != len(want) {
		t.Errorf("buckets %v: every sample must land in exactly one bucket", got)
	}
}

func TestParseProfileRejectsTruncatedInput(t *testing.T) {
	data := syntheticProfile(t, []stack{{frames: []string{"main.main"}, count: 1}})
	raw, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if _, err := plain.ReadFrom(raw); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(plain.Bytes()[:plain.Len()-3])
	zw.Close()
	if _, err := parseProfile(buf.Bytes()); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}
