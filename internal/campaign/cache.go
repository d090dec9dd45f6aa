// Evaluation cache: content-addressed memoisation of campaign runs.
//
// The generation loops (coverage probes, falsification hill-climbing,
// ddmin shrinking) and the fault sweeps re-evaluate heavily overlapping
// candidate sets. Every candidate evaluation is a pure function of its
// inputs — that is the campaign determinism contract — so a candidate can
// be content-addressed by a fingerprint over everything that feeds the
// run (stimuli instants and events, sub-seed, scheme, fault plan) and its
// result reused instead of re-simulated.
//
// Determinism is preserved by construction:
//
//  1. Run identities (index, derived seed) are assigned exactly as
//     MapScratch assigns them, before any cache interaction, so a cached
//     campaign hands fn the same Run a cold campaign would.
//  2. Cache insertions happen on the coordinating goroutine in run order
//     after the batch completes — never in worker completion order — so
//     the eviction sequence of the bounded cache is a pure function of
//     the batch sequence. A tiny cache changes only how often work is
//     redone, never what any run computes.
//  3. Cached values are shared, not copied: callers must treat evaluation
//     results as immutable (they already must, since outcomes are
//     compared byte-for-byte across worker counts).
package campaign

import (
	"fmt"
	"sync"
)

// fnv64Offset/fnv64Prime are the FNV-1a 64-bit parameters; the splitmix64
// constants below (the same ones sim.Rand uses) finalise the digest so
// that near-identical inputs land far apart.
const (
	fnv64Offset uint64 = 0xcbf29ce484222325
	fnv64Prime  uint64 = 0x100000001b3
)

// Hasher accumulates a 64-bit content fingerprint. The zero value is not
// ready for use; start with NewHasher. Word-oriented on purpose: every
// input is widened to uint64 before mixing, so a fingerprint is a pure
// function of the logical value sequence, not of an encoding.
type Hasher struct {
	h uint64
}

// NewHasher returns a Hasher primed with the FNV-1a offset basis.
func NewHasher() *Hasher { return &Hasher{h: fnv64Offset} }

// Uint64 mixes one 64-bit word, byte by byte (FNV-1a).
func (s *Hasher) Uint64(v uint64) {
	h := s.h
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnv64Prime
		v >>= 8
	}
	s.h = h
}

// Int64 mixes one signed word.
func (s *Hasher) Int64(v int64) { s.Uint64(uint64(v)) }

// Int mixes one int.
func (s *Hasher) Int(v int) { s.Uint64(uint64(int64(v))) }

// Bool mixes one boolean.
func (s *Hasher) Bool(v bool) {
	if v {
		s.Uint64(1)
	} else {
		s.Uint64(0)
	}
}

// String mixes a length-prefixed string, so ("ab","c") and ("a","bc")
// fingerprint differently.
func (s *Hasher) String(v string) {
	s.Int(len(v))
	h := s.h
	for i := 0; i < len(v); i++ {
		h = (h ^ uint64(v[i])) * fnv64Prime
	}
	s.h = h
}

// Sum finalises and returns the fingerprint (splitmix64 finaliser, so
// single-bit input differences avalanche through the whole word).
func (s *Hasher) Sum() uint64 {
	z := s.h + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Hits counts lookups answered from the cache.
	Hits uint64
	// Misses counts lookups that had to execute.
	Misses uint64
	// Deduped counts batch-internal duplicates: runs whose key matched an
	// earlier run of the same batch and therefore executed once, not twice.
	Deduped uint64
	// Evictions counts entries displaced by the capacity bound.
	Evictions uint64
	// Size and Capacity describe the store at snapshot time.
	Size     int
	Capacity int
}

// Lookups returns the total number of lookups observed.
func (s CacheStats) Lookups() uint64 { return s.Hits + s.Misses + s.Deduped }

// HitRate returns the fraction of lookups not paying for an execution
// (cross-batch hits plus in-batch dedups), in [0, 1].
func (s CacheStats) HitRate() float64 {
	if l := s.Lookups(); l > 0 {
		return float64(s.Hits+s.Deduped) / float64(l)
	}
	return 0
}

func (s CacheStats) String() string {
	return fmt.Sprintf("%d lookups: %d hits, %d misses, %d deduped (%.1f%% reused), %d/%d entries, %d evicted",
		s.Lookups(), s.Hits, s.Misses, s.Deduped, 100*s.HitRate(), s.Size, s.Capacity, s.Evictions)
}

// DefaultCacheCap bounds a NewCache(0) cache. 4096 entries comfortably
// covers a full generation pipeline (a few hundred distinct candidates)
// while keeping the worst case small: entries hold evaluation summaries,
// not traces.
const DefaultCacheCap = 4096

// Cache is a bounded, concurrency-safe store of evaluation results keyed
// by content fingerprint. Eviction is deterministic FIFO in insertion
// order; because MapScratchCached inserts on the coordinator in run
// order, the sequence of evictions — and therefore every hit/miss — is a
// pure function of the lookup sequence, never of goroutine scheduling.
//
// Values are stored and returned by reference. The caller contract is the
// campaign determinism contract: results are immutable once produced.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[uint64]any
	order   []uint64 // insertion order ring, oldest at head
	head    int      // index of the oldest live key within order
	stats   CacheStats
}

// NewCache returns an empty cache bounded to capacity entries;
// capacity <= 0 selects DefaultCacheCap.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCap
	}
	return &Cache{cap: capacity, entries: make(map[uint64]any, capacity)}
}

// Get looks up a fingerprint, recording a hit or miss.
func (c *Cache) Get(key uint64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[key]
	if ok {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return v, ok
}

// Put stores a result, evicting the oldest entry when full. Re-putting an
// existing key refreshes the value without consuming capacity.
func (c *Cache) Put(key uint64, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		c.entries[key] = v
		return
	}
	if len(c.entries) >= c.cap {
		old := c.order[c.head]
		c.head++
		delete(c.entries, old)
		c.stats.Evictions++
		// Compact the order slice once the dead prefix dominates.
		if c.head >= len(c.order)/2 && c.head > 16 {
			c.order = append(c.order[:0], c.order[c.head:]...)
			c.head = 0
		}
	}
	c.entries[key] = v
	c.order = append(c.order, key)
}

// noteDeduped records n batch-internal duplicate suppressions.
func (c *Cache) noteDeduped(n int) {
	if n == 0 {
		return
	}
	c.mu.Lock()
	c.stats.Deduped += uint64(n)
	c.mu.Unlock()
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = len(c.entries)
	s.Capacity = c.cap
	return s
}

// MapScratchCached is MapScratch with content-addressed memoisation:
// keys[i] must fingerprint every input run i's result depends on
// (including Run.Seed whenever fn reads it). Runs whose key is cached are
// answered without executing fn; duplicate keys within the batch execute
// once, with the later runs sharing the first run's value; the remaining
// misses execute through MapScratch on the usual worker pool.
//
// Run identity is preserved exactly: run i receives the same
// Run{Index, Seed} it would receive from MapScratch(cfg, len(keys), ...),
// whether it hits, dedups or executes — so a cached campaign's outcomes
// are byte-identical to an uncached one at every worker count and every
// cache capacity. Errors are never cached: a failed run is retried on the
// next encounter, and duplicate keys of a failed run share the failure
// within the batch only. A nil cache degrades to plain MapScratch.
func MapScratchCached[T, S any](cfg Config, cache *Cache, keys []uint64, newScratch func() S, fn func(Run, S) (T, error)) []Outcome[T] {
	if cache == nil {
		return MapScratch(cfg, len(keys), newScratch, fn)
	}
	n := len(keys)
	outs := make([]Outcome[T], n)
	seeds := Seeds(cfg.Seed, n)
	for i := range outs {
		outs[i].Run = Run{Index: i, Seed: seeds[i]}
	}
	// Resolve hits and batch-internal duplicates in run order; the
	// remaining primaries execute.
	primaries := make([]int, 0, n)
	var dups [][2]int                 // (dup index, primary index)
	primaryOf := make(map[uint64]int) // key -> executing batch index
	for i, key := range keys {
		if p, ok := primaryOf[key]; ok {
			dups = append(dups, [2]int{i, p})
			continue
		}
		if v, ok := cache.Get(key); ok {
			if val, ok := v.(T); ok {
				outs[i].Value = val
				continue
			}
			// A foreign value type under this key is treated as a miss
			// (possible only when one cache is shared across experiments
			// whose fingerprints collide — vanishingly unlikely).
		}
		primaryOf[key] = i
		primaries = append(primaries, i)
	}
	cache.noteDeduped(len(dups))
	if len(primaries) > 0 {
		// Each sub-run is handed its ORIGINAL Run identity — the
		// sub-campaign's own index/seed derivation is ignored — so results
		// cannot depend on which runs happened to hit.
		sub := MapScratch(cfg, len(primaries), newScratch, func(r Run, scratch S) (T, error) {
			return fn(outs[primaries[r.Index]].Run, scratch)
		})
		for k, i := range primaries {
			outs[i].Value, outs[i].Err = sub[k].Value, sub[k].Err
		}
	}
	// Commit on this goroutine in run order (deterministic eviction),
	// then fan each primary's outcome out to its duplicates.
	for _, i := range primaries {
		if outs[i].Err == nil {
			cache.Put(keys[i], outs[i].Value)
		}
	}
	for _, dp := range dups {
		outs[dp[0]].Value, outs[dp[0]].Err = outs[dp[1]].Value, outs[dp[1]].Err
	}
	return outs
}
