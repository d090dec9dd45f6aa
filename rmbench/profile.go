package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stack is one CPU-profile sample: its function names, innermost first
// (inlined frames expanded), and its sample count.
type stack struct {
	frames []string
	count  int64
}

// parseProfile decodes a gzipped pprof profile (the format
// runtime/pprof.StartCPUProfile writes) into stacks. It reads only the
// fields attribution needs: samples, locations, functions and strings.
func parseProfile(data []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
	)
	err = pbFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					s.values = pbUints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := pbFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{}
		if len(s.values) > 0 {
			st.count = int64(s.values[0])
		}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbFields walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as b.
func pbFields(buf []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errTruncated
		}
		buf = buf[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errTruncated
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errTruncated
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errTruncated
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errTruncated
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field, packed (b set) or not.
func pbUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

// Attribution buckets for samples with no program frame.
const (
	bucketSched   = "go.sched"   // scheduler stack: mcall, park, schedule
	bucketGC      = "go.gc"      // GC background workers
	bucketRuntime = "go.runtime" // every other runtime-only stack
)

// frameModule maps a function name to the program module that owns it:
// "rmtest/internal/sim.(*Kernel).Run" gives "sim", the rmtest facade
// gives "rmtest" and the benchmark's own code gives "rmbench". Standard
// library and runtime frames give "".
func frameModule(fn string) string {
	switch {
	case strings.HasPrefix(fn, "rmtest/internal/"):
		mod := fn[len("rmtest/internal/"):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		return mod
	case strings.HasPrefix(fn, "rmtest/rmbench.") || strings.HasPrefix(fn, "main."):
		return "rmbench"
	case strings.HasPrefix(fn, "rmtest."):
		return "rmtest"
	}
	return ""
}

// attribute charges every sample to the innermost program frame's
// module, so runtime and standard-library frames go to their nearest
// program caller. Samples without a program frame go to go.sched when
// they run on the scheduler stack, to go.gc when they are GC workers and
// to go.runtime otherwise. The result maps bucket to sample count.
func attribute(stacks []stack) map[string]int64 {
	out := map[string]int64{}
	for _, s := range stacks {
		out[bucketOf(s.frames)] += s.count
	}
	return out
}

func bucketOf(frames []string) string {
	for _, f := range frames {
		if m := frameModule(f); m != "" {
			return m
		}
	}
	for _, f := range frames {
		switch f {
		case "runtime.mcall", "runtime.park_m", "runtime.schedule", "runtime.goexit0", "runtime.gosched_m", "runtime.goschedguarded_m":
			return bucketSched
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime._GC":
			return bucketGC
		}
	}
	return bucketRuntime
}
