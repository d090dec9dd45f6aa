// Batch-granular evaluation for prefix-sharing callers: MapBatchCached
// hands a campaign's cache misses to the caller in contiguous run-order
// chunks, so an evaluator can share simulated stimulus prefixes between
// the runs of one chunk, and PrefixStats reports how much simulation
// that sharing avoided.

package campaign

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// PrefixStats summarises how much simulation a prefix-shared batch
// avoided. SimTime counts the virtual time actually simulated (trunk
// advances plus per-branch completions); PlainTime counts the virtual
// time evaluating every run from scratch would have simulated.
type PrefixStats struct {
	Runs       int
	SharedRuns int // finished on a system resumed from a snapshot
	PlainRuns  int // simulated from time zero: fallback or lone runs
	Snapshots  int
	Restores   int
	SimTime    int64
	PlainTime  int64
}

// ReuseRatio returns the fraction of plain-evaluation virtual time the
// shared walk avoided, in [0, 1].
func (s PrefixStats) ReuseRatio() float64 {
	if s.PlainTime <= 0 {
		return 0
	}
	r := 1 - float64(s.SimTime)/float64(s.PlainTime)
	if r < 0 {
		return 0
	}
	return r
}

// Add accumulates another batch's stats into s.
func (s *PrefixStats) Add(o PrefixStats) {
	s.Runs += o.Runs
	s.SharedRuns += o.SharedRuns
	s.PlainRuns += o.PlainRuns
	s.Snapshots += o.Snapshots
	s.Restores += o.Restores
	s.SimTime += o.SimTime
	s.PlainTime += o.PlainTime
}

func (s PrefixStats) String() string {
	return fmt.Sprintf("%d runs (%d shared, %d plain), %d snapshots, %d restores, %.1f%% prefix reuse",
		s.Runs, s.SharedRuns, s.PlainRuns, s.Snapshots, s.Restores, 100*s.ReuseRatio())
}

// PrefixStatsSink accumulates prefix-sharing statistics across batches.
// It is safe for concurrent use; sums are order-independent, so the
// aggregate is deterministic regardless of chunk completion order.
type PrefixStatsSink struct {
	mu sync.Mutex
	s  PrefixStats
}

// Add folds one batch's statistics into the sink.
func (p *PrefixStatsSink) Add(s PrefixStats) {
	p.mu.Lock()
	p.s.Add(s)
	p.mu.Unlock()
}

// Stats returns the accumulated statistics.
func (p *PrefixStatsSink) Stats() PrefixStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.s
}

// MapBatchCached is the batch-granular sibling of MapScratchCached: hit
// and duplicate resolution are identical, but the misses are handed to
// the batch callback in contiguous run-order chunks (one per worker, at
// most Workers chunks) instead of run by run — so a prefix-sharing
// evaluator sees whole batches of related candidates. batch must return
// exactly one outcome per run, in run order; its per-run values must
// not depend on how the misses were chunked. Commit order, run identities and progress
// follow the MapScratchCached rules — errors are never cached, and
// OnProgress sees one snapshot per executed run as its chunk completes —
// so cached and uncached campaigns stay byte-identical at every worker
// count. A nil cache skips lookup and commit but still chunks.
func MapBatchCached[T, S any](cfg Config, cache *Cache, keys []uint64, newScratch func() S,
	batch func(runs []Run, scratch S) ([]Outcome[T], error)) []Outcome[T] {
	return mapCached(cfg, cache, keys, func(outs []Outcome[T], primaries []int) {
		ctr := newCounters(len(primaries), cfg.OnProgress)
		nc := min(cfg.workers(), len(primaries))
		// eval runs one contiguous run-order chunk; chunks write disjoint
		// slots of outs.
		eval := func(c int) {
			chunk := primaries[c*len(primaries)/nc : (c+1)*len(primaries)/nc]
			runs := make([]Run, len(chunk))
			for k, i := range chunk {
				runs[k] = outs[i].Run
			}
			res, err := protectBatch(batch, runs, newScratch())
			for k, i := range chunk {
				if err != nil {
					outs[i].Err = err
				} else {
					outs[i].Value, outs[i].Err = res[k].Value, res[k].Err
				}
				ctr.finish(outs[i].Err != nil)
			}
		}
		if nc == 1 {
			eval(0)
			return
		}
		var wg sync.WaitGroup
		wg.Add(nc)
		for c := 0; c < nc; c++ {
			go func(c int) {
				defer wg.Done()
				eval(c)
			}(c)
		}
		wg.Wait()
	})
}

// protectBatch invokes one chunk's batch callback with panic isolation
// and validates the one-outcome-per-run contract.
func protectBatch[T, S any](batch func([]Run, S) ([]Outcome[T], error), runs []Run, scratch S) (vals []Outcome[T], err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("campaign: batch of %d runs panicked: %v\n%s", len(runs), p, debug.Stack())
		}
	}()
	vals, err = batch(runs, scratch)
	if err == nil && len(vals) != len(runs) {
		return nil, fmt.Errorf("campaign: batch returned %d outcomes for %d runs", len(vals), len(runs))
	}
	return vals, err
}
