package sim

import (
	"testing"
	"time"
)

const ms = time.Millisecond

// chain arms a callback at each of the given instants that, when it
// fires, tries to take the next chain event inline, logging the instant
// of every event taken either way and whether it was taken inline.
type chain struct {
	k      *Kernel
	at     []Time
	next   int
	ev     Event
	log    []Time
	inline []bool
}

func (c *chain) arm() {
	if c.next < len(c.at) {
		c.ev = c.k.At(c.at[c.next], c.fired)
		c.next++
	}
}

func (c *chain) fired() {
	c.log = append(c.log, c.k.Now())
	c.inline = append(c.inline, false)
	for {
		c.arm()
		if !c.k.TakeNext(c.ev) {
			return
		}
		c.log = append(c.log, c.k.Now())
		c.inline = append(c.inline, true)
	}
}

// TestTakeNextMatchesLoop: events taken inline advance the clock and the
// fired/queue counters exactly as the run loop firing them would, and
// TakeNext declines events beyond the run's horizon or behind another
// event.
func TestTakeNextMatchesLoop(t *testing.T) {
	k := New()
	c := &chain{k: k, at: []Time{1 * ms, 2 * ms, 3 * ms, 5 * ms, 6 * ms}}
	c.arm()
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
	pushes, pops, removes := k.QueueOps()
	if pushes != 6 || pops != 5 || removes != 0 {
		t.Fatalf("queue ops %d/%d/%d, want 6/5/0", pushes, pops, removes)
	}
}

func TestTakeNextOutsideRunLoop(t *testing.T) {
	k := New()
	var ev Event
	taken := true
	k.At(ms, func() { taken = k.TakeNext(ev) })
	ev = k.At(2*ms, func() {})
	k.Step()
	if taken {
		t.Fatal("TakeNext took an event under Step")
	}
}

// TestTakeNextHonoursStopAndBoundary: TakeNext declines while a stop
// condition holds, and calls the instant-boundary hook as
// RunBeforeHook's loop would.
func TestTakeNextHonoursStopAndBoundary(t *testing.T) {
	k := New()
	c := &chain{k: k, at: []Time{1 * ms, 2 * ms, 3 * ms, 4 * ms}}
	c.arm()
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
	c.arm()
	k.StopWhen(func() bool { return k.Now() >= 2*ms })
	k.Run(time.Second)
	if len(c.log) != 2 || k.Now() != 2*ms || k.Pending() != 1 {
		t.Fatalf("fired at %v, now %v, pending %d; want a stop at 2ms with 3ms pending", c.log, k.Now(), k.Pending())
	}
}
