package campaign

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
)

// --- Hasher ----------------------------------------------------------

func TestHasherDeterministicAndBoundarySensitive(t *testing.T) {
	sum := func(mix func(*Hasher)) uint64 {
		h := NewHasher()
		mix(h)
		return h.Sum()
	}
	a := sum(func(h *Hasher) { h.String("ab"); h.String("c") })
	b := sum(func(h *Hasher) { h.String("a"); h.String("bc") })
	if a == b {
		t.Error("length prefix failed: (ab,c) and (a,bc) collide")
	}
	if sum(func(h *Hasher) { h.Uint64(1); h.Uint64(2) }) ==
		sum(func(h *Hasher) { h.Uint64(2); h.Uint64(1) }) {
		t.Error("hash is order-insensitive")
	}
	if sum(func(h *Hasher) { h.Bool(true) }) == sum(func(h *Hasher) { h.Bool(false) }) {
		t.Error("bool values collide")
	}
	if sum(func(h *Hasher) { h.Int64(-1) }) == sum(func(h *Hasher) { h.Int64(1) }) {
		t.Error("signed values collide")
	}
	// Same logical sequence, same fingerprint — every time.
	mix := func(h *Hasher) { h.String("scheme2"); h.Int(42); h.Bool(true); h.Uint64(7) }
	if sum(mix) != sum(mix) {
		t.Error("hash not deterministic")
	}
}

// --- Cache store -----------------------------------------------------

func TestCacheEvictionFIFO(t *testing.T) {
	c := NewCache(3)
	for k := uint64(1); k <= 4; k++ {
		c.Put(k, int(k))
	}
	// 1 was oldest and must be gone; 2..4 live.
	if _, ok := c.Get(1); ok {
		t.Error("oldest entry survived eviction")
	}
	for k := uint64(2); k <= 4; k++ {
		if v, ok := c.Get(k); !ok || v.(int) != int(k) {
			t.Errorf("key %d: got %v, %v", k, v, ok)
		}
	}
	// Refreshing a live key consumes no capacity and evicts nothing.
	c.Put(3, 33)
	if c.Len() != 3 {
		t.Errorf("Len after refresh = %d, want 3", c.Len())
	}
	if v, _ := c.Get(3); v.(int) != 33 {
		t.Errorf("refresh did not replace value: %v", v)
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Size != 3 || s.Capacity != 3 {
		t.Errorf("stats = %+v, want 1 eviction, 3/3 entries", s)
	}
	if s.Hits != 4 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 4 hits, 1 miss", s)
	}
}

func TestCacheEvictionOrderSurvivesCompaction(t *testing.T) {
	// Push far more insertions than capacity through the ring so the
	// order-slice compaction path runs, then check FIFO order is intact:
	// exactly the last `cap` keys must be live.
	const cap, total = 8, 200
	c := NewCache(cap)
	for k := uint64(0); k < total; k++ {
		c.Put(k, k)
	}
	if c.Len() != cap {
		t.Fatalf("Len = %d, want %d", c.Len(), cap)
	}
	for k := uint64(0); k < total; k++ {
		_, ok := c.Get(k)
		if want := k >= total-cap; ok != want {
			t.Errorf("key %d live=%v, want %v", k, ok, want)
		}
	}
	if s := c.Stats(); s.Evictions != total-cap {
		t.Errorf("evictions = %d, want %d", s.Evictions, total-cap)
	}
}

func TestCacheZeroCapacityDefaults(t *testing.T) {
	c := NewCache(0)
	if s := c.Stats(); s.Capacity != DefaultCacheCap {
		t.Errorf("capacity = %d, want %d", s.Capacity, DefaultCacheCap)
	}
}

// --- MapScratchCached ------------------------------------------------

// cachedEval is the test evaluation function: value is a pure function
// of the run index fed through the key table, and every execution is
// counted.
func evalKeyed(keys []uint64, execs *atomic.Int64) func(Run, *int) (string, error) {
	return func(r Run, _ *int) (string, error) {
		execs.Add(1)
		return fmt.Sprintf("val-%d", keys[r.Index]), nil
	}
}

func newInt() *int { return new(int) }

func TestMapScratchCachedMatchesUncached(t *testing.T) {
	keys := []uint64{10, 11, 12, 13, 14, 15}
	for _, workers := range []int{1, 2, 4} {
		cfg := Config{Workers: workers, Seed: 42}
		var e1, e2 atomic.Int64
		plain := MapScratch(cfg, len(keys), newInt, evalKeyed(keys, &e1))
		cached := MapScratchCached(cfg, NewCache(0), keys, newInt, evalKeyed(keys, &e2))
		if !reflect.DeepEqual(plain, cached) {
			t.Errorf("workers=%d: cached outcomes differ from plain:\n%v\n%v", workers, plain, cached)
		}
		if e1.Load() != e2.Load() {
			t.Errorf("workers=%d: cold cache executed %d runs, plain %d", workers, e2.Load(), e1.Load())
		}
	}
}

func TestMapScratchCachedSecondBatchHits(t *testing.T) {
	keys := []uint64{1, 2, 3, 4}
	cache := NewCache(0)
	cfg := Config{Workers: 2, Seed: 7}
	var execs atomic.Int64
	first := MapScratchCached(cfg, cache, keys, newInt, evalKeyed(keys, &execs))
	second := MapScratchCached(cfg, cache, keys, newInt, evalKeyed(keys, &execs))
	if !reflect.DeepEqual(first, second) {
		t.Errorf("warm batch differs from cold batch:\n%v\n%v", first, second)
	}
	if execs.Load() != int64(len(keys)) {
		t.Errorf("executions = %d, want %d (second batch must be all hits)", execs.Load(), len(keys))
	}
	s := cache.Stats()
	if s.Hits != uint64(len(keys)) || s.Misses != uint64(len(keys)) {
		t.Errorf("stats = %+v, want %d hits and %d misses", s, len(keys), len(keys))
	}
}

func TestMapScratchCachedInBatchDedup(t *testing.T) {
	keys := []uint64{5, 5, 6, 5, 6} // 2 unique, 3 duplicates
	cache := NewCache(0)
	var execs atomic.Int64
	outs := MapScratchCached(Config{Workers: 4, Seed: 1}, cache, keys, newInt, evalKeyed(keys, &execs))
	if execs.Load() != 2 {
		t.Errorf("executions = %d, want 2", execs.Load())
	}
	for i, o := range outs {
		if want := fmt.Sprintf("val-%d", keys[i]); o.Value != want || o.Err != nil {
			t.Errorf("out[%d] = %q, %v; want %q", i, o.Value, o.Err, want)
		}
	}
	if s := cache.Stats(); s.Deduped != 3 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 3 deduped, 2 misses", s)
	}
}

func TestMapScratchCachedPreservesRunIdentity(t *testing.T) {
	// Whether a run hits, dedups or executes, fn must observe the same
	// Run{Index, Seed} MapScratch would hand it. Warm the cache for a
	// subset, then check the executing runs' identities.
	keys := []uint64{100, 101, 102, 103}
	cache := NewCache(0)
	cfg := Config{Workers: 1, Seed: 99}
	// Pre-seed keys 101 and 103 under a different batch layout.
	MapScratchCached(Config{Workers: 1, Seed: 5}, cache, []uint64{103, 101}, newInt,
		func(r Run, _ *int) (string, error) { return "warm", nil })
	got := make([]Run, len(keys))
	outs := MapScratchCached(cfg, cache, keys, newInt, func(r Run, _ *int) (string, error) {
		got[r.Index] = r
		return "cold", nil
	})
	want := Seeds(cfg.Seed, len(keys))
	for _, i := range []int{0, 2} { // the two misses
		if got[i].Index != i || got[i].Seed != want[i] {
			t.Errorf("run %d executed as %+v, want Index=%d Seed=%d", i, got[i], i, want[i])
		}
		if outs[i].Seed != want[i] {
			t.Errorf("outcome %d seed = %d, want %d", i, outs[i].Seed, want[i])
		}
	}
	for _, i := range []int{1, 3} { // the two hits
		if outs[i].Value != "warm" || outs[i].Index != i || outs[i].Seed != want[i] {
			t.Errorf("hit outcome %d = %+v, want warm value with original identity", i, outs[i])
		}
	}
}

func TestMapScratchCachedErrorsNotCached(t *testing.T) {
	keys := []uint64{70, 70, 71}
	cache := NewCache(0)
	boom := errors.New("boom")
	var execs atomic.Int64
	fail := func(r Run, _ *int) (string, error) {
		execs.Add(1)
		if keys[r.Index] == 70 {
			return "", boom
		}
		return "ok", nil
	}
	outs := MapScratchCached(Config{Workers: 1, Seed: 3}, cache, keys, newInt, fail)
	if execs.Load() != 2 {
		t.Errorf("executions = %d, want 2 (dup of the failing key shares the failure)", execs.Load())
	}
	if !errors.Is(outs[0].Err, boom) || !errors.Is(outs[1].Err, boom) || outs[2].Err != nil {
		t.Errorf("error propagation wrong: %v %v %v", outs[0].Err, outs[1].Err, outs[2].Err)
	}
	// The failure must not be memoised: the next batch retries it.
	execs.Store(0)
	MapScratchCached(Config{Workers: 1, Seed: 3}, cache, []uint64{70, 71}, newInt, fail)
	if execs.Load() != 1 {
		t.Errorf("retry executions = %d, want 1 (70 retried, 71 cached)", execs.Load())
	}
}

func TestMapScratchCachedNilCache(t *testing.T) {
	keys := []uint64{1, 2}
	var execs atomic.Int64
	outs := MapScratchCached(Config{Workers: 1, Seed: 8}, nil, keys, newInt, evalKeyed(keys, &execs))
	plain := MapScratch(Config{Workers: 1, Seed: 8}, len(keys), newInt, evalKeyed(keys, &execs))
	if !reflect.DeepEqual(outs, plain) {
		t.Errorf("nil cache does not degrade to MapScratch:\n%v\n%v", outs, plain)
	}
}

func TestMapScratchCachedTinyCapacityDeterministic(t *testing.T) {
	// A cache far smaller than the batch changes only how much work is
	// redone, never the outcomes: every capacity and worker count must
	// produce the byte-identical outcome slice.
	keys := make([]uint64, 24)
	for i := range keys {
		keys[i] = uint64(i % 9) // duplicates + enough spread to thrash cap 2
	}
	var e atomic.Int64
	ref := MapScratch(Config{Workers: 1, Seed: 6}, len(keys), newInt, evalKeyed(keys, &e))
	for _, capacity := range []int{2, 4, 512} {
		for _, workers := range []int{1, 2, 4} {
			cache := NewCache(capacity)
			// Two passes: the second hits whatever survived eviction.
			for pass := 0; pass < 2; pass++ {
				outs := MapScratchCached(Config{Workers: workers, Seed: 6}, cache, keys, newInt, evalKeyed(keys, &e))
				if !reflect.DeepEqual(outs, ref) {
					t.Errorf("cap=%d workers=%d pass=%d: outcomes diverge", capacity, workers, pass)
				}
			}
		}
	}
}

func TestMapScratchCachedForeignTypeIsMiss(t *testing.T) {
	keys := []uint64{55}
	cache := NewCache(0)
	cache.Put(55, 12345) // an int under a key the string campaign will use
	var execs atomic.Int64
	outs := MapScratchCached(Config{Workers: 1, Seed: 2}, cache, keys, newInt, evalKeyed(keys, &execs))
	if execs.Load() != 1 || outs[0].Value != "val-55" {
		t.Errorf("foreign-typed entry not treated as miss: execs=%d out=%v", execs.Load(), outs[0])
	}
}
