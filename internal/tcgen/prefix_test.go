package tcgen

// Byte-identity and effectiveness tests of the prefix-sharing
// evaluation path: shared evaluation must reproduce plain evaluation's
// results exactly — per sample, per verdict, per delay — at every
// worker count, with and without a cache, and the shared walk must
// actually share (non-zero reuse on hill-climb-shaped batches).

import (
	"reflect"
	"testing"
	"time"

	"rmtest/internal/campaign"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

// falsifyBatch derives a hill-climb-shaped candidate batch: a seed
// schedule plus mutants that each perturb one stimulus.
func falsifyBatch(t *testing.T, tg Target, n int) []Schedule {
	t.Helper()
	return falsifyBatchSeeded(tg, n, 0x5eed)
}

// falsifyBatchSeeded is falsifyBatch with the batch seed as a
// parameter.
func falsifyBatchSeeded(tg Target, n int, seed uint64) []Schedule {
	tg = tg.normalised()
	rs := sim.NewRand(seed)
	base := seedSchedule(tg, "prefix-batch", 4, rs.Uint64())
	scheds := []Schedule{base}
	for len(scheds) < n {
		scheds = append(scheds, mutate(tg, base, rs.Fork()))
	}
	return scheds
}

func TestPrefixShareByteIdentity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		target Target
	}{
		{"gpca-scheme3", gpcaTarget(t, scheme3)},
		{"crossing-scheme2", crossingTarget(t, scheme2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tg := tc.target.normalised()
			scheds := falsifyBatch(t, tg, 8)
			plain, err := evaluate(tg, Options{}.normalised(), 7, platform.RLevel, scheds)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				for _, cached := range []bool{false, true} {
					opt := Options{Workers: workers, PrefixShare: true, PrefixStats: &campaign.PrefixStatsSink{}}.normalised()
					if cached {
						opt.Cache = campaign.NewCache(0)
					}
					shared, err := evaluate(tg, opt, 7, platform.RLevel, scheds)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(plain, shared) {
						t.Fatalf("workers=%d cached=%v: shared evaluation diverged from plain\nplain:  %+v\nshared: %+v",
							workers, cached, plain, shared)
					}
				}
			}
		})
	}
}

// FuzzPrefixShareMatchesPlain: prefix-shared evaluation must equal
// plain evaluation on any hill-climb-shaped batch — batch seed, batch
// size and worker count (1 or 2) are fuzzed — on a target that shares
// (crossing on scheme 2) and one that falls back (GPCA on the saturated
// scheme 3), and every run must be accounted for as shared or plain.
func FuzzPrefixShareMatchesPlain(f *testing.F) {
	f.Add(uint64(0x5eed), uint8(8), uint8(1))
	f.Add(uint64(0x5eed), uint8(8), uint8(2))
	targets := []struct {
		name   string
		target Target
	}{
		{"crossing-scheme2", crossingTarget(f, scheme2).normalised()},
		{"gpca-scheme3", gpcaTarget(f, scheme3).normalised()},
	}
	f.Fuzz(func(t *testing.T, seed uint64, size, workers uint8) {
		n := 2 + int(size%8) // the shared path needs a batch of two or more
		w := 1 + int(workers%2)
		for _, tc := range targets {
			scheds := falsifyBatchSeeded(tc.target, n, seed)
			plain, err := evaluate(tc.target, Options{}.normalised(), 7, platform.RLevel, scheds)
			if err != nil {
				t.Fatal(err)
			}
			sink := &campaign.PrefixStatsSink{}
			opt := Options{Workers: w, PrefixShare: true, PrefixStats: sink}.normalised()
			shared, err := evaluate(tc.target, opt, 7, platform.RLevel, scheds)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, shared) {
				t.Fatalf("%s n=%d workers=%d: shared evaluation diverged from plain\nplain:  %+v\nshared: %+v",
					tc.name, n, w, plain, shared)
			}
			if st := sink.Stats(); st.Runs != n || st.Runs != st.SharedRuns+st.PlainRuns {
				t.Fatalf("%s n=%d workers=%d: run accounting inconsistent: %+v", tc.name, n, w, st)
			}
		}
	})
}

// TestPrefixShareSingletonChunksArePlain: a batch split into singleton
// chunks (two candidates, two workers) restores nothing and has no
// session, so every run is simulated from time zero and must count as
// plain, not shared.
func TestPrefixShareSingletonChunksArePlain(t *testing.T) {
	tg := gpcaTarget(t, scheme2).normalised()
	scheds := falsifyBatch(t, tg, 2)
	sink := &campaign.PrefixStatsSink{}
	opt := Options{Workers: 2, PrefixShare: true, PrefixStats: sink}.normalised()
	if _, err := evaluate(tg, opt, 7, platform.RLevel, scheds); err != nil {
		t.Fatal(err)
	}
	st := sink.Stats()
	if st.Runs != 2 || st.SharedRuns != 0 || st.PlainRuns != 2 || st.Restores != 0 {
		t.Fatalf("singleton chunks: %v, want 2 runs, 0 shared, 2 plain, 0 restores", st)
	}
}

// TestPrefixShareReuse: a single-worker hill-climb batch must actually
// share — every candidate evaluated through the snapshot path, at least
// one snapshot taken, and a positive reuse ratio. The target runs
// scheme2: a schedulable system with idle gaps between release bursts,
// where quiescent snapshot instants exist near every divergence bound.
// (Scheme3's interference load saturates the CPU, so it never goes
// quiescent and legitimately falls back to plain evaluation — the
// byte-identity test covers that path.)
func TestPrefixShareReuse(t *testing.T) {
	tg := gpcaTarget(t, scheme2).normalised()
	scheds := falsifyBatch(t, tg, 8)
	sink := &campaign.PrefixStatsSink{}
	opt := Options{Workers: 1, PrefixShare: true, PrefixStats: sink}.normalised()
	if _, err := evaluate(tg, opt, 7, platform.RLevel, scheds); err != nil {
		t.Fatal(err)
	}
	st := sink.Stats()
	if st.Runs != len(scheds) {
		t.Fatalf("stats runs = %d, want %d", st.Runs, len(scheds))
	}
	if st.SharedRuns == 0 || st.Snapshots == 0 || st.Restores == 0 {
		t.Fatalf("no sharing happened: %v", st)
	}
	if st.ReuseRatio() <= 0 {
		t.Fatalf("reuse ratio not positive: %v", st)
	}
	t.Logf("prefix stats: %v", st)
}

// TestPrefixSessionShrinkByteIdentity: the generator-scoped session —
// the pristine warm-up snapshot that deepens across ddmin rounds and
// serves the singleton evaluations — must leave every observable output
// of the shrinking generator untouched: same minimal schedule, same
// samples, same round/eval counts. The input schedule starts after a
// long warm-up so the session engages on every batch, and the tight
// bound makes every sample violate, driving the full reduction.
func TestPrefixSessionShrinkByteIdentity(t *testing.T) {
	tg := gpcaTarget(t, scheme2)
	tg.Req.Bound = time.Millisecond
	tg.Req.Timeout = 600 * time.Millisecond
	tg.Start = 10 * time.Second
	tg.Settle = 1500 * time.Millisecond
	tg = tg.normalised()
	rs := sim.NewRand(0x5eed)
	input := seedSchedule(tg, "session-shrink", 12, rs.Uint64())

	plain, err := Shrinker(input).Generate(tg, Options{Seed: 42, Workers: 1, Budget: 48})
	if err != nil {
		t.Fatal(err)
	}
	sink := &campaign.PrefixStatsSink{}
	shared, err := Shrinker(input).Generate(tg, Options{
		Seed: 42, Workers: 1, Budget: 48, PrefixShare: true, PrefixStats: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, shared) {
		t.Fatalf("session-shared shrink diverged from plain\nplain:  %+v\nshared: %+v", plain, shared)
	}
	st := sink.Stats()
	if st.PlainRuns != 0 {
		t.Fatalf("scheme2 shrink fell back to plain evaluation: %v", st)
	}
	// Every evaluation — batches and singletons — resumes from the
	// session, so reuse must beat what intra-batch sharing alone reaches
	// on ddmin's two-complement rounds (their shared trunks are capped
	// well under half the horizon).
	if r := st.ReuseRatio(); r < 0.5 {
		t.Fatalf("session reuse ratio %.2f, want >= 0.5: %v", r, st)
	}
	t.Logf("session shrink stats: %v", st)
}

// TestPrefixSessionFalsifyByteIdentity: the session must not perturb
// the falsification search either — mutants can move a stimulus ahead
// of the warm-up snapshot, which must cleanly fall back to a fresh
// system for that batch.
func TestPrefixSessionFalsifyByteIdentity(t *testing.T) {
	tg := gpcaTarget(t, scheme2)
	tg.Start = 5 * time.Second
	tg = tg.normalised()
	opt := Options{Seed: 42, Workers: 1, Budget: 12, Samples: 3}
	plain, err := Falsification().Generate(tg, opt)
	if err != nil {
		t.Fatal(err)
	}
	optShared := opt
	optShared.PrefixShare = true
	optShared.PrefixStats = &campaign.PrefixStatsSink{}
	shared, err := Falsification().Generate(tg, optShared)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, shared) {
		t.Fatalf("session-shared falsify diverged from plain\nplain:  %+v\nshared: %+v", plain, shared)
	}
	t.Logf("session falsify stats: %v", optShared.PrefixStats.Stats())
}
