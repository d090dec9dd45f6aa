package tcgen

import (
	"fmt"
	"runtime/debug"
	"time"

	"rmtest/internal/campaign"
	"rmtest/internal/core"
	"rmtest/internal/platform"
	"rmtest/internal/sim"
)

// Prefix-sharing candidate evaluation. The falsification hill-climb and
// ddmin shrinking batches are structurally redundant: every mutant in a
// round perturbs one stimulus of the same parent, and every ddmin
// complement keeps most of the current schedule — so candidate
// schedules overlap heavily in their leading stimuli. With PrefixShare
// on, a batch is sorted into a prefix trie and walked depth-first on one
// live system: each shared prefix is simulated once, the system state is
// snapshotted at the divergence instant, and each branch resumes from
// the snapshot. Results are byte-identical to the plain path at every
// worker count — the snapshot machinery reproduces the exact event
// interleaving of a from-scratch run, so chunking changes only which
// candidates share — and the plain path is also the automatic fallback
// whenever a snapshot is refused (the system is never quiescent near
// the divergence bound) or the shared walk panics.

// prefixSteps flattens a schedule into the step sequence used for
// prefix comparison and incremental arming: primaries first (the order
// core.Runner.Setup arms them), then auxiliaries in schedule order (the
// order the Prepare hook arms them). Preserving the plain path's arming
// order preserves its event-sequence law — at tied instants events fire
// in arming order — which is what makes a resumed branch byte-identical
// to a from-scratch run. Two candidates share a prefix when their
// leading steps are equal.
func prefixSteps(s Schedule) []Stimulus {
	out := make([]Stimulus, 0, len(s.Stimuli))
	for _, st := range s.Stimuli {
		if !st.Aux {
			out = append(out, st)
		}
	}
	for _, st := range s.Stimuli {
		if st.Aux {
			out = append(out, st)
		}
	}
	return out
}

// armSteps schedules stimuli on a live system exactly as the plain path
// does: primaries the way applyStimuli would, auxiliaries the way the
// Prepare hook would.
func armSteps(sys *platform.System, steps []Stimulus) {
	for _, st := range steps {
		if st.Width > 0 {
			sys.Env.PulseAt(st.At, st.Signal, st.Value, st.Rest, st.Width)
		} else {
			sys.Env.SetAt(st.At, st.Signal, st.Value)
		}
	}
}

// sessionMargin is the virtual-time headroom a session resume leaves
// between its snapshot instant and the batch's earliest step: the
// walker's own AdvanceSnapshot still needs events to process and a full
// quiescence-lookback window before the first divergence bound.
const sessionMargin = 200 * time.Millisecond

// prefixSession carries a pristine live system — nothing armed, ever —
// and a monotonically deepening warm-up snapshot across the batches of
// one generator invocation. Successive ddmin rounds (and the hill
// climb's later rounds) evaluate schedules whose earliest stimulus
// moves later and later; without the session every batch re-simulates
// the growing empty warm-up region from time zero, with it the region
// is simulated once and every subsequent batch — including singleton
// evaluations — resumes from the deepest pristine capture. Results stay
// byte-identical: a restored pristine state is exact, and the batch's
// steps are armed through Restore's arm hook, which schedules them as
// construction events just like a from-scratch run.
//
// A session is single-threaded by construction: it is only attached
// when the evaluation runs as one chunk (Workers == 1), so the one live
// system is owned by one goroutine at a time.
type prefixSession struct {
	t       Target
	scratch *platform.Scratch
	sys     *platform.System
	snap    *platform.SysSnap
	// dead latches the first refused warm-up capture (a saturated
	// scheme never goes quiescent) so later batches skip the probe.
	dead bool
}

func newPrefixSession(t Target) *prefixSession {
	return &prefixSession{t: t, scratch: &platform.Scratch{}}
}

// newGenSession creates a prefix session for one generator invocation
// when the options call for it: sharing on, a single-chunk worker
// configuration, and no session already attached by an enclosing
// generator.
func newGenSession(t Target, opt Options) (*prefixSession, bool) {
	if !opt.PrefixShare || opt.Workers != 1 || opt.session != nil {
		return nil, false
	}
	return newPrefixSession(t), true
}

// Close shuts the session's system down and bars further resumes.
func (s *prefixSession) Close() {
	if s.sys != nil {
		s.sys.Shutdown()
		s.sys = nil
	}
	s.snap = nil
	s.dead = true
}

// prefixWalk evaluates one contiguous chunk of a batch by walking its
// prefix trie on one live system. All of its methods run on one
// goroutine, which owns the live system for the whole chunk.
type prefixWalk struct {
	t       Target
	scheds  []Schedule
	scratch *platform.Scratch
	runner  *core.Runner
	sess    *prefixSession
	sys     *platform.System

	runs  []campaign.Run
	steps [][]Stimulus
	hors  []sim.Time
	outs  []campaign.Outcome[evalOut]
	done  []bool
	now   sim.Time
	// resumed reports that the live system was restored from a snapshot
	// or resumed from the session's warm-up capture: only runs finished
	// on such a system avoided simulation and count as shared.
	resumed bool
	stats   campaign.PrefixStats
}

func newPrefixWalk(t Target, scheds []Schedule, runs []campaign.Run, sc *platform.Scratch, sess *prefixSession) (*prefixWalk, error) {
	runner, err := core.NewRunner(func(lv platform.Instrument) (*platform.System, error) {
		return t.Prebuilt.NewSystem(t.Scheme(), lv, sc)
	}, t.Req)
	if err != nil {
		return nil, err
	}
	return &prefixWalk{
		t: t, scheds: scheds, scratch: sc, runner: runner, sess: sess,
		runs:  runs,
		steps: make([][]Stimulus, len(runs)),
		hors:  make([]sim.Time, len(runs)),
		outs:  make([]campaign.Outcome[evalOut], len(runs)),
		done:  make([]bool, len(runs)),
	}, nil
}

// eval evaluates the chunk and returns its outcomes in run order; the
// sharing statistics accumulate in w.stats.
func (w *prefixWalk) eval() []campaign.Outcome[evalOut] {
	for i, r := range w.runs {
		sc := w.scheds[r.Index]
		w.outs[i].Run = r
		w.steps[i] = prefixSteps(sc)
		w.hors[i] = sc.TestCase().Horizon(w.t.Req)
		w.stats.PlainTime += int64(w.hors[i])
	}
	w.stats.Runs = len(w.runs)
	if len(w.runs) > 0 {
		w.walk()
	}
	// Fallback for everything the shared walk did not finish.
	for i, r := range w.runs {
		if w.done[i] {
			continue
		}
		w.outs[i].Value, w.outs[i].Err = w.plain(r)
		w.done[i] = true
		w.stats.PlainRuns++
		w.stats.SimTime += int64(w.hors[i])
	}
	return w.outs
}

// plain evaluates one run from scratch with panic isolation.
func (w *prefixWalk) plain(r campaign.Run) (out evalOut, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("tcgen: run %d (seed %#x) panicked: %v\n%s", r.Index, r.Seed, p, debug.Stack())
		}
	}()
	return evalOne(w.t, w.scheds[r.Index], w.scratch, platform.RLevel)
}

// walk runs the shared trie walk with panic isolation: a panic anywhere
// in the shared path abandons the live system and leaves the unfinished
// runs to the plain fallback.
func (w *prefixWalk) walk() {
	defer func() {
		if p := recover(); p != nil {
			// The live system may be wedged mid-event; stop it as well as
			// possible and let the fallback rebuild from scratch.
			func() {
				defer func() { recover() }()
				w.release(true)
			}()
			return
		}
		w.release(false)
	}()
	group := make([]int, len(w.runs))
	for i := range group {
		group[i] = i
	}
	d := w.extend(group, 0)
	if err := w.start(w.steps[0][:d]); err != nil {
		return
	}
	w.descend(group, d)
}

// start brings up the live system with the trunk steps armed: resumed
// from the session's warm-up snapshot when it can serve the chunk,
// otherwise freshly constructed at time zero.
func (w *prefixWalk) start(steps []Stimulus) error {
	if w.startFrom(steps) {
		return nil
	}
	sys, err := w.t.Prebuilt.NewSystem(w.t.Scheme(), platform.RLevel, w.scratch)
	if err != nil {
		return err
	}
	w.sys = sys
	armSteps(sys, steps)
	return nil
}

// batchBound returns the earliest virtual instant any schedule in the
// batch touches — the first stimulus At or horizon — which is the
// latest instant a pristine warm-up snapshot may be taken at to serve
// every candidate.
func (w *prefixWalk) batchBound() sim.Time {
	bound := sim.Time(1<<63 - 1)
	for _, sc := range w.scheds {
		if h := sc.TestCase().Horizon(w.t.Req); h < bound {
			bound = h
		}
		for _, st := range sc.Stimuli {
			if st.At < bound {
				bound = st.At
			}
		}
	}
	return bound
}

// startFrom resumes the chunk from the session's warm-up snapshot,
// deepening it first when the batch's bound allows. It reports false
// when the session cannot serve this chunk — no session, a refused
// capture, or a batch needing state earlier than the snapshot — in
// which case the caller constructs a fresh system from time zero.
func (w *prefixWalk) startFrom(steps []Stimulus) bool {
	sess := w.sess
	if sess == nil || sess.dead {
		return false
	}
	target := w.batchBound() - sessionMargin
	if target <= 0 {
		return false
	}
	if sess.sys == nil {
		sys, err := w.t.Prebuilt.NewSystem(w.t.Scheme(), platform.RLevel, sess.scratch)
		if err != nil {
			sess.dead = true
			return false
		}
		snap, ok := sys.AdvanceSnapshot(target)
		if !ok {
			sys.Shutdown()
			sess.dead = true
			return false
		}
		sess.sys, sess.snap = sys, snap
	} else {
		if sess.snap.At() > target {
			return false
		}
		if target > sess.snap.At() {
			// Deepen: replay from the snapshot with nothing armed and
			// capture the latest pristine quiescent instant near the new
			// bound. A refused capture keeps the old snapshot.
			sess.sys.Restore(sess.snap, nil)
			if snap, ok := sess.sys.AdvanceSnapshot(target); ok {
				sess.snap = snap
			}
		}
	}
	// Arm the trunk through Restore's hook so the steps are scheduled as
	// construction events — the same tied-instant ordering as arming at
	// system construction in a plain run.
	w.sys = sess.sys
	w.sys.Restore(sess.snap, func() { armSteps(w.sys, steps) })
	w.now = sess.snap.At()
	w.resumed = w.now > 0
	return true
}

// release lets go of the live system. The session's system stays alive
// for the next batch — the warm-up snapshot rewinds whatever state this
// walk left behind — unless the walk panicked (wedged): a possibly
// wedged session system is closed so no later batch resumes from it.
func (w *prefixWalk) release(wedged bool) {
	if w.sys == nil {
		return
	}
	if w.sess != nil && w.sys == w.sess.sys {
		if wedged {
			w.sess.Close()
		}
	} else {
		w.sys.Shutdown()
	}
	w.sys = nil
}

// extend returns the depth of the longest step prefix shared by every
// candidate in the group, starting from an already-shared depth d.
func (w *prefixWalk) extend(group []int, d int) int {
	for {
		first := w.steps[group[0]]
		if len(first) <= d {
			return d
		}
		for _, i := range group[1:] {
			st := w.steps[i]
			if len(st) <= d || st[d] != first[d] {
				return d
			}
		}
		d++
	}
}

// descend processes one trie node: the live system has the group's
// shared steps [0:d) armed and its clock at w.now, which is at or
// before the At of every unarmed step and every horizon in the group.
func (w *prefixWalk) descend(group []int, d int) {
	if len(group) == 1 {
		w.finish(group[0])
		return
	}
	// Advance the shared trunk to the divergence bound — the earliest
	// instant any candidate's unarmed suffix (or horizon) needs — and
	// snapshot at the latest eligible instant on the way there. Branches
	// resume from the snapshot and replay the (short) shared tail up to
	// the bound themselves.
	tAdv := w.hors[group[0]]
	for _, i := range group {
		tAdv = min(tAdv, w.hors[i])
		for _, st := range w.steps[i][d:] {
			tAdv = min(tAdv, st.At)
		}
	}
	entry, ok := w.sys.AdvanceSnapshot(tAdv)
	if tAdv > w.now {
		w.stats.SimTime += int64(tAdv - w.now)
		w.now = tAdv
	}
	if !ok {
		return // whole subtree falls back to plain evaluation
	}
	w.stats.Snapshots++

	// Terminal candidates (their whole sequence is armed) run to their
	// horizon from the entry snapshot; children partition by their next
	// step, in first-seen order, and recurse.
	var order []Stimulus
	children := make(map[Stimulus][]int)
	for _, i := range group {
		st := w.steps[i]
		if len(st) == d {
			w.restore(entry, nil)
			w.finish(i)
			continue
		}
		if _, seen := children[st[d]]; !seen {
			order = append(order, st[d])
		}
		children[st[d]] = append(children[st[d]], i)
	}
	for _, next := range order {
		ch := children[next]
		d2 := w.extend(ch, d)
		w.restore(entry, w.steps[ch[0]][d:d2])
		w.descend(ch, d2)
	}
}

func (w *prefixWalk) restore(snap *platform.SysSnap, steps []Stimulus) {
	w.sys.Restore(snap, func() { armSteps(w.sys, steps) })
	w.stats.Restores++
	w.now = snap.At()
	w.resumed = true
}

// finish runs the live system to run i's horizon and extracts its
// verdicts.
func (w *prefixWalk) finish(i int) {
	tc := w.scheds[w.runs[i].Index].TestCase()
	w.sys.Run(w.hors[i])
	w.outs[i].Value = evalOut{Samples: w.runner.Evaluate(w.sys, tc)}
	w.done[i] = true
	if w.resumed {
		w.stats.SharedRuns++
	} else {
		w.stats.PlainRuns++
	}
	if h := w.hors[i]; h > w.now {
		w.stats.SimTime += int64(h - w.now)
	}
	w.now = w.hors[i]
}

// evaluatePrefix is the PrefixShare variant of evaluate: same campaign
// configuration, fingerprints, cache semantics and run identities, but
// the cache misses are walked as prefix tries on contiguous run-order
// chunks, one per worker. Each chunk's sharing statistics accumulate
// into opt's stats sink; sums are order-independent, so the aggregate
// is deterministic even though chunks finish in scheduling order.
func evaluatePrefix(t Target, opt Options, seed uint64, scheds []Schedule) ([]evalOut, error) {
	cfg := campaign.Config{Workers: opt.Workers, Seed: seed, OnProgress: opt.Progress}
	keys := make([]uint64, len(scheds))
	for i, sc := range scheds {
		keys[i] = fingerprint(t, platform.RLevel, sc)
	}
	// The session's live system is single-owner: only attach it when the
	// whole batch runs as one chunk on the calling goroutine.
	sess := opt.session
	if opt.Workers != 1 {
		sess = nil
	}
	outs := campaign.MapBatchCached(cfg, opt.Cache, keys,
		func() *platform.Scratch { return &platform.Scratch{} },
		func(runs []campaign.Run, sc *platform.Scratch) ([]campaign.Outcome[evalOut], error) {
			w, err := newPrefixWalk(t, scheds, runs, sc, sess)
			if err != nil {
				return nil, err
			}
			res := w.eval()
			if opt.PrefixStats != nil {
				opt.PrefixStats.Add(w.stats)
			}
			return res, nil
		})
	return campaign.Values(outs)
}
