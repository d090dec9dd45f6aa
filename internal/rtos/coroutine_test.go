package rtos

import (
	"runtime"
	"testing"
	"time"

	"rmtest/internal/sim"
)

// waitGoroutines waits, up to a deadline, for the goroutine count to fall
// back to base and fails the test if it does not.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > base {
		t.Fatalf("goroutines leaked: %d before, %d after Shutdown", base, now)
	}
}

// TestShutdownReleasesUnstartedTasks: tasks whose start event never
// fired still own a coroutine, and Shutdown must release it.
func TestShutdownReleasesUnstartedTasks(t *testing.T) {
	base := runtime.NumGoroutine()
	k := sim.New()
	s := New(k, Config{})
	for _, name := range []string{"a", "b", "c"} {
		s.Spawn(name, 1, time.Hour, func(tk *Task) { tk.Compute(ms) })
	}
	s.SpawnPeriodic("p", 2, time.Hour, 10*ms, func(tk *Task) { tk.Compute(ms) })
	k.Run(10 * ms)
	for _, tk := range s.Tasks() {
		if tk.State() != TaskNew {
			t.Fatalf("%s: state %v, want new", tk.Name(), tk.State())
		}
	}
	s.Shutdown()
	waitGoroutines(t, base)
}

// TestShutdownTerminatesBlockedTasks: Shutdown unwinds bodies suspended
// blocked on a queue, sleeping and mid-Compute, and the goroutine count
// returns to its baseline.
func TestShutdownTerminatesBlockedTasks(t *testing.T) {
	base := runtime.NumGoroutine()
	k := sim.New()
	s := New(k, Config{})
	q := s.NewQueue("q", 1)
	unwound := 0
	// Highest priority first: the receiver blocks and the sleeper sleeps
	// before the hour-long burst takes the CPU.
	blocked := s.Spawn("blocked", 3, 0, func(tk *Task) {
		defer func() { unwound++ }()
		tk.Recv(q) // never satisfied
	})
	sleeping := s.Spawn("sleeping", 2, 0, func(tk *Task) {
		defer func() { unwound++ }()
		tk.Sleep(time.Hour)
	})
	computing := s.Spawn("computing", 1, 0, func(tk *Task) {
		defer func() { unwound++ }()
		tk.Compute(time.Hour)
	})
	k.Run(10 * ms)
	for _, c := range []struct {
		tk   *Task
		want TaskState
	}{{blocked, TaskBlocked}, {sleeping, TaskSleeping}, {computing, TaskRunning}} {
		if got := c.tk.State(); got != c.want {
			t.Fatalf("%s: state %v before Shutdown, want %v", c.tk.Name(), got, c.want)
		}
	}
	if unwound != 0 {
		t.Fatalf("%d bodies returned before Shutdown", unwound)
	}
	s.Shutdown()
	waitGoroutines(t, base)
	if unwound != 3 {
		t.Fatalf("%d bodies unwound, want 3", unwound)
	}
}

// TestRestoreDropsInFlightCoroutines: a restore drops a coroutine
// suspended mid-burst and restarts it at the release loop head; the
// resumed run reproduces the original schedule, and Shutdown still
// returns the goroutine count to its baseline.
func TestRestoreDropsInFlightCoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := sim.New()
	s := New(k, Config{})
	s.SpawnPeriodic("hi", 2, 0, 10*ms, func(tk *Task) { tk.Compute(3 * ms) })
	s.SpawnPeriodic("lo", 1, 0, 25*ms, func(tk *Task) {
		tk.Compute(4 * ms)
		tk.Compute(4 * ms)
	})
	// hi runs 0-3ms, lo 3-10ms, hi 10-13ms, lo 13-14ms; at 18ms both
	// tasks wait for their next release.
	k.Run(18 * ms)
	snap, ok := s.Snapshot()
	if !ok {
		t.Fatal("scheduler not quiescent at 18ms")
	}
	evs := k.CaptureEvents()
	restore := func() {
		k.Rewind(18 * ms)
		s.Restore(snap)
		for _, ev := range evs {
			if ev.Construction {
				k.At(ev.At, ev.Fn)
			}
		}
		k.MarkConstruction()
		for _, ev := range evs {
			if !ev.Construction {
				k.At(ev.At, ev.Fn)
			}
		}
	}

	k.Run(100 * ms)
	want := s.Trace().String()
	// Cut mid-burst: hi at 22ms, lo at 27ms, and at 31ms hi mid-burst
	// with lo preempted inside its first burst.
	for _, cut := range []sim.Time{22 * ms, 27 * ms, 31 * ms} {
		restore()
		k.Run(cut) // leaves a task suspended mid-burst
		if s.Quiescent() {
			t.Fatalf("cut at %v is quiescent; the test needs a burst in flight", cut)
		}
		restore()
		k.Run(100 * ms)
		if got := s.Trace().String(); got != want {
			t.Fatalf("restore after cut at %v diverged:\n%s\nwant:\n%s", cut, got, want)
		}
	}
	if n := runtime.NumGoroutine(); n > base+len(s.Tasks()) {
		t.Fatalf("dropped coroutines leaked: %d goroutines for %d tasks over a baseline of %d", n, len(s.Tasks()), base)
	}
	s.Shutdown()
	waitGoroutines(t, base)
}

// TestTaskPanicReachesKernelCaller: a panic in a task body surfaces on
// the goroutine driving the kernel, where a caller's recover catches it,
// and the scheduler can still be shut down cleanly.
func TestTaskPanicReachesKernelCaller(t *testing.T) {
	base := runtime.NumGoroutine()
	k := sim.New()
	s := New(k, Config{})
	s.SpawnPeriodic("bystander", 1, 0, 5*ms, func(tk *Task) { tk.Compute(ms) })
	s.Spawn("faulty", 2, 12*ms, func(tk *Task) {
		tk.Compute(ms)
		panic("vm fault")
	})
	got := func() (p any) {
		defer func() { p = recover() }()
		k.Run(time.Second)
		return nil
	}()
	if got != "vm fault" {
		t.Fatalf("recovered %v, want the body's panic value", got)
	}
	if now := k.Now(); now != 13*ms {
		t.Fatalf("panic surfaced at %v, want 13ms", now)
	}
	s.Shutdown()
	waitGoroutines(t, base)
}

// TestInlineBurstBoundaryNotQuiescent: when a task takes its compute
// completion inline, RunBeforeHook reports the instant boundary from
// inside the task's coroutine, mid scheduling pass; Quiescent must
// reject those boundaries and still accept the idle ones between
// releases.
func TestInlineBurstBoundaryNotQuiescent(t *testing.T) {
	k := sim.New()
	s := New(k, Config{})
	defer s.Shutdown()
	s.SpawnPeriodic("p", 1, 0, 10*ms, func(tk *Task) {
		tk.Compute(ms)
		tk.Compute(2 * ms)
	})
	inBurst, quiescent := 0, 0
	k.RunBeforeHook(50*ms, func() {
		if s.inLoop {
			inBurst++
			if s.Quiescent() {
				t.Fatalf("quiescent at %v inside a scheduling pass", k.Now())
			}
		} else if s.Quiescent() {
			quiescent++
		}
	})
	if inBurst == 0 || quiescent == 0 {
		t.Fatalf("boundaries: %d inside a pass, %d quiescent; want both > 0", inBurst, quiescent)
	}
}
