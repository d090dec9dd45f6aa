package sim

import (
	"testing"
	"time"
)

const ms = time.Millisecond

// chain fires a callback at each of the given instants. Each firing
// tries to complete the next chain event inline and schedules it only
// when AdvanceInline declines, logging the instant of every chain event
// either way and whether it was completed inline.
type chain struct {
	k      *Kernel
	at     []Time
	next   int
	log    []Time
	inline []bool
}

func (c *chain) fired() {
	c.log = append(c.log, c.k.Now())
	c.inline = append(c.inline, false)
	for c.next < len(c.at) {
		at := c.at[c.next]
		c.next++
		if !c.k.AdvanceInline(at - c.k.Now()) {
			c.k.At(at, c.fired)
			return
		}
		c.log = append(c.log, c.k.Now())
		c.inline = append(c.inline, true)
	}
}

// start schedules the chain's first event.
func (c *chain) start() {
	c.k.At(c.at[0], c.fired)
	c.next = 1
}

// TestAdvanceInlineMatchesLoop: events completed inline advance the clock
// and the fired counter exactly as the run loop firing them would, cost
// no heap operation, and AdvanceInline declines events beyond the run's
// horizon or behind another event.
func TestAdvanceInlineMatchesLoop(t *testing.T) {
	k := New()
	c := &chain{k: k, at: []Time{1 * ms, 2 * ms, 3 * ms, 5 * ms, 6 * ms}}
	c.start()
	k.At(4*ms, func() {}) // sits between the 3ms and 5ms chain events
	k.Run(5 * ms)
	want := []Time{1 * ms, 2 * ms, 3 * ms, 5 * ms}
	wantInline := []bool{false, true, true, false}
	if len(c.log) != len(want) {
		t.Fatalf("fired at %v, want %v", c.log, want)
	}
	for i := range want {
		if c.log[i] != want[i] || c.inline[i] != wantInline[i] {
			t.Fatalf("fired at %v inline %v, want %v inline %v", c.log, c.inline, want, wantInline)
		}
	}
	// The 6ms event lies beyond the horizon and stays pending.
	if k.EventsFired() != 5 || k.Pending() != 1 || k.Now() != 5*ms {
		t.Fatalf("fired=%d pending=%d now=%v, want 5, 1, 5ms", k.EventsFired(), k.Pending(), k.Now())
	}
	// Pushed: the chain's 1, 5 and 6ms events and the 4ms event; popped:
	// 1, 4 and 5ms. The inline 2ms and 3ms events touch the heap not at all.
	pushes, pops, removes := k.QueueOps()
	if pushes != 4 || pops != 3 || removes != 0 {
		t.Fatalf("queue ops %d/%d/%d, want 4/3/0", pushes, pops, removes)
	}
}

// TestAdvanceInlineTakesOneSequenceNumber: an inline event consumes the
// sequence number its schedule would have, so the events armed after it
// carry the same sequence numbers as in the scheduled run.
func TestAdvanceInlineTakesOneSequenceNumber(t *testing.T) {
	seqs := func(inline bool) []uint64 {
		k := New()
		k.At(ms, func() {
			if !inline || !k.AdvanceInline(ms) {
				k.After(ms, func() {})
			}
			k.After(5*ms, func() {})
		})
		k.Run(3 * ms)
		var out []uint64
		for _, ev := range k.CaptureEvents() {
			out = append(out, ev.Seq)
		}
		return out
	}
	plain, inl := seqs(false), seqs(true)
	if len(plain) != 1 || len(inl) != 1 || plain[0] != inl[0] {
		t.Fatalf("pending seqs scheduled %v, inline %v; want the 5ms event at the same seq", plain, inl)
	}
}

// TestAdvanceInlineDeclinesTie: a pending event at exactly now+d was
// scheduled first, so it fires first and AdvanceInline declines.
func TestAdvanceInlineDeclinesTie(t *testing.T) {
	k := New()
	took := true
	k.At(2*ms, func() {})
	k.At(ms, func() { took = k.AdvanceInline(ms) })
	k.Run(time.Second)
	if took {
		t.Fatal("AdvanceInline jumped ahead of an event pending at the same instant")
	}
}

func TestAdvanceInlineOutsideRunLoop(t *testing.T) {
	k := New()
	took := true
	k.At(ms, func() { took = k.AdvanceInline(ms) })
	k.Step()
	if took || k.Now() != ms || k.EventsFired() != 1 {
		t.Fatalf("AdvanceInline under Step: took=%v now=%v fired=%d", took, k.Now(), k.EventsFired())
	}
}

// TestAdvanceInlineHonoursStopAndBoundary: AdvanceInline declines while
// a stop condition holds, and calls the instant-boundary hook as
// RunBeforeHook's loop would.
func TestAdvanceInlineHonoursStopAndBoundary(t *testing.T) {
	k := New()
	c := &chain{k: k, at: []Time{1 * ms, 2 * ms, 3 * ms, 4 * ms}}
	c.start()
	var boundaries []Time
	k.RunBeforeHook(4*ms, func() { boundaries = append(boundaries, k.Now()) })
	if len(c.log) != 3 || !c.inline[1] || !c.inline[2] {
		t.Fatalf("fired at %v inline %v, want 1-3ms with 2ms and 3ms inline", c.log, c.inline)
	}
	// Boundaries before 1ms, 2ms and 3ms, then the final one at 4ms.
	wantB := []Time{0, 1 * ms, 2 * ms, 4 * ms}
	if len(boundaries) != len(wantB) {
		t.Fatalf("boundaries %v, want %v", boundaries, wantB)
	}
	for i := range wantB {
		if boundaries[i] != wantB[i] {
			t.Fatalf("boundaries %v, want %v", boundaries, wantB)
		}
	}

	k = New()
	c = &chain{k: k, at: []Time{1 * ms, 2 * ms, 3 * ms}}
	c.start()
	k.StopWhen(func() bool { return k.Now() >= 2*ms })
	k.Run(time.Second)
	if len(c.log) != 2 || k.Now() != 2*ms || k.Pending() != 1 {
		t.Fatalf("fired at %v, now %v, pending %d; want a stop at 2ms with 3ms pending", c.log, k.Now(), k.Pending())
	}
}

// TestTickerRearmIsOneHeapOp: a live ticker's tick re-arms its node in
// place at the root — one heap operation, counted as the tick's pop — and
// the handle of the fired tick goes stale.
func TestTickerRearmIsOneHeapOp(t *testing.T) {
	k := New()
	var tk *Ticker
	var second Event // the handle of tick 1, taken while tick 0 runs
	tk = k.Periodic(ms, ms, func(n uint64) {
		if n == 0 {
			second = tk.ev
		}
	})
	first := tk.ev
	k.Run(10 * ms)
	pushes, pops, removes := k.QueueOps()
	if tk.Ticks() != 10 || pushes != 1 || pops != 10 || removes != 0 {
		t.Fatalf("ticks=%d queue ops %d/%d/%d, want 10 ticks and 1/10/0", tk.Ticks(), pushes, pops, removes)
	}
	if first.Pending() || first.Cancel() || second.Pending() || second.Cancel() {
		t.Fatal("handle of a fired tick still live")
	}
	if !tk.ev.Pending() || tk.ev.At() != 11*ms {
		t.Fatalf("next tick pending=%v at %v, want true at 11ms", tk.ev.Pending(), tk.ev.At())
	}
	// Each re-arm takes a sequence number, as the plain re-arm's After did.
	if evs := k.CaptureEvents(); len(evs) != 1 || evs[0].Seq != 10 {
		t.Fatalf("pending %+v, want the next tick alone under seq 10", evs)
	}
	tk.Stop()
	k.Run(20 * ms)
	if tk.Ticks() != 10 || k.Pending() != 0 {
		t.Fatalf("stopped ticker: ticks=%d pending=%d", tk.Ticks(), k.Pending())
	}
}

// TestReplayedTickRetags: a tick re-armed through the plain callback — as
// the snapshot replay does — fires through Ticker.fire once and tags its
// re-armed node, so the following ticks re-arm in place.
func TestReplayedTickRetags(t *testing.T) {
	k := New()
	tk := k.Periodic(ms, ms, func(uint64) {})
	k.Run(2 * ms)
	evs := k.CaptureEvents()
	k.Rewind(2 * ms)
	tk.SetTicks(2)
	before, beforePops, _ := k.QueueOps()
	k.At(evs[0].At, evs[0].Fn)
	k.Run(6 * ms)
	pushes, pops, _ := k.QueueOps()
	// 3ms: popped plain, re-armed by a push; 4-6ms: re-armed in place.
	if tk.Ticks() != 6 || pushes-before != 2 || pops-beforePops != 4 {
		t.Fatalf("ticks=%d, pushes +%d pops +%d; want 6 ticks, +2 pushes (replay, re-tag), +4 pops",
			tk.Ticks(), pushes-before, pops-beforePops)
	}
	if k.queue[0].tick != tk {
		t.Fatal("re-armed tick node is not tagged")
	}
}
