package rtos

import (
	"fmt"
	"iter"

	"rmtest/internal/sim"
)

// TaskState is the lifecycle state of a task.
type TaskState int

// Task lifecycle states.
const (
	TaskNew       TaskState = iota // spawned, not yet released
	TaskReady                      // runnable, waiting for the CPU
	TaskRunning                    // on the CPU
	TaskPreempted                  // taken off the CPU at a boundary; ready
	TaskSleeping                   // waiting for a time instant
	TaskBlocked                    // waiting on a queue/semaphore/mutex
	TaskDone                       // body returned
)

func (st TaskState) String() string {
	switch st {
	case TaskNew:
		return "new"
	case TaskReady:
		return "ready"
	case TaskRunning:
		return "running"
	case TaskPreempted:
		return "preempted"
	case TaskSleeping:
		return "sleeping"
	case TaskBlocked:
		return "blocked"
	case TaskDone:
		return "done"
	}
	return fmt.Sprintf("TaskState(%d)", int(st))
}

// stopped is the panic sentinel that unwinds a suspended task body once
// its coroutine is stopped (Shutdown, or a restore dropping an in-flight
// release): the body's pending kernel request can never complete, so
// the request call panics and the coroutine recovers the sentinel.
type stopped struct{}

// Task is a simulated RTOS task. Its methods may only be called from
// inside the task's own body function; calling them from outside the
// simulation is a programming error.
type Task struct {
	sched *Scheduler
	name  string
	prio  int // effective priority (may be boosted by priority inheritance)
	base  int // assigned priority
	state TaskState

	// The body runs as a coroutine: next resumes it until it has issued
	// its next kernel request (ok=false once the body has returned), stop
	// unwinds it wherever it is suspended, and yield — valid while the
	// body runs — suspends it.
	body  func(*Task)
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// parkedAtRelease reports that the coroutine is suspended such that
	// its next dispatch begins a periodic release (the snapshot-
	// eligibility condition); nextRelease is the periodic wrapper's
	// release instant, kept on the struct rather than the coroutine's
	// stack so a restore can rewrite it.
	parkedAtRelease bool
	nextRelease     sim.Time

	// Kernel callbacks, bound once at Spawn so arming them allocates
	// nothing: the start event, the sleep wakeup and compute completion.
	onStart, onWake, onComputeDone func()

	pendingCompute sim.Time
	readyAt        sim.Time
	wakeEv         sim.Event

	// Reply slots for blocking operations, set by the scheduler before the
	// task is resumed.
	blockVal any
	blockOK  bool

	// Blocking attribution: the resource the task is currently blocked
	// on and, for mutexes, the holder at the block instant. Cleared when
	// the task unblocks.
	blockedOn string
	blockedBy string

	// Accounting.
	cpuTime        sim.Time
	holding        []*Mutex
	period         sim.Time // for periodic tasks; 0 otherwise
	releases       uint64
	missedReleases uint64

	// WCET-overrun fault: compute bursts issued inside the window are
	// scaled by ovNum/ovDen (applied by Compute).
	ovFrom sim.Time
	ovTo   sim.Time
	ovNum  int64
	ovDen  int64
}

// Name returns the task's name.
func (t *Task) Name() string { return t.name }

// Priority returns the task's current effective priority.
func (t *Task) Priority() int { return t.prio }

// BasePriority returns the task's assigned priority.
func (t *Task) BasePriority() int { return t.base }

// State returns the task's lifecycle state.
func (t *Task) State() TaskState { return t.state }

// CPUTime returns the total virtual CPU time this task has consumed via
// Compute (including time consumed by bursts still in progress).
func (t *Task) CPUTime() sim.Time { return t.cpuTime }

// BlockedOn returns the name of the resource the task is currently
// blocked on, or "" when the task is not blocked on a named resource.
func (t *Task) BlockedOn() string { return t.blockedOn }

// BlockedBy returns the name of the task holding the resource this task
// is blocked on, or "" when the holder is unknown (queues, semaphores)
// or the task is not blocked.
func (t *Task) BlockedBy() string { return t.blockedBy }

// Period returns the period of a periodic task (zero for plain tasks).
func (t *Task) Period() sim.Time { return t.period }

// Releases returns how many periodic releases have executed.
func (t *Task) Releases() uint64 { return t.releases }

// MissedReleases returns how many periodic releases were skipped because
// the previous instance overran (a symptom of CPU starvation).
func (t *Task) MissedReleases() uint64 { return t.missedReleases }

// InjectOverrun scales every compute burst the task issues from instant
// `from` for `duration` by num/den — an execution-time excursion: a cache
// storm, a degraded flash wait-state, a pathological input to CODE(M).
// num/den > 1 stretches bursts (WCET overrun); fractions below 1 model a
// task running unexpectedly fast. The scaling applies at burst issue
// time, so a burst started inside the window keeps its stretched length
// even if it completes after the window closes.
func (t *Task) InjectOverrun(from, duration sim.Time, num, den int64) {
	if num <= 0 || den <= 0 {
		panic(fmt.Sprintf("rtos: InjectOverrun with non-positive scale %d/%d", num, den))
	}
	t.ovFrom = from
	t.ovTo = from + duration
	t.ovNum = num
	t.ovDen = den
}

// overrun returns the effective duration of a compute burst issued now.
func (t *Task) overrun(now, d sim.Time) sim.Time {
	if t.ovTo <= t.ovFrom || now < t.ovFrom || now >= t.ovTo {
		return d
	}
	return sim.Time(int64(d) * t.ovNum / t.ovDen)
}

// begin (re)creates the task's coroutine suspended before the first
// statement of its body, so the next dispatch runs the body from the top
// — for a periodic task, the head of its release loop.
func (t *Task) begin() {
	t.parkedAtRelease = true
	t.next, t.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopped); !ok {
					panic(r)
				}
			}
		}()
		t.yield = yield
		t.parkedAtRelease = false
		t.body(t)
	})
}

// suspend completes a kernel request the body has just applied to the
// scheduler state on its own coroutine: it suspends the body until the
// scheduler dispatches it again, unless it may run on without leaving
// the coroutine (Scheduler.resumeInline).
func (t *Task) suspend() {
	if t.sched.resumeInline(t) {
		return
	}
	if !t.yield(struct{}{}) {
		panic(stopped{})
	}
}

// Now returns the current virtual time.
func (t *Task) Now() sim.Time { return t.sched.k.Now() }

// Compute consumes d of CPU time. The burst is preemptible: a
// higher-priority task that becomes ready in the middle takes the CPU and
// the remainder of the burst continues later. Compute(0) is a no-op.
func (t *Task) Compute(d sim.Time) {
	if d < 0 {
		panic("rtos: negative compute duration")
	}
	if d == 0 {
		return
	}
	// A WCET-overrun fault applies at burst issue time.
	d = t.overrun(t.Now(), d)
	t.cpuTime += d
	t.pendingCompute = d
	t.suspend()
}

// Sleep blocks the task for d of virtual time. Sleep(0) yields the CPU.
func (t *Task) Sleep(d sim.Time) {
	if d < 0 {
		panic("rtos: negative sleep duration")
	}
	t.SleepUntil(t.Now() + d)
}

// SleepUntil blocks the task until the absolute instant at. If at is not
// in the future it degrades to a yield, mirroring vTaskDelayUntil.
func (t *Task) SleepUntil(at sim.Time) {
	t.sched.sleepUntil(t, at)
	t.suspend()
}

// Yield releases the CPU to equal-or-higher-priority ready tasks; the task
// stays ready and continues when scheduled again.
func (t *Task) Yield() {
	t.sched.yieldCPU(t)
	t.suspend()
}

// Send enqueues v on q, blocking while the queue is full.
func (t *Task) Send(q *Queue, v any) {
	q.send(t, v, 0, false)
	t.suspend()
}

// SendTimeout enqueues v on q, giving up after d. It reports whether the
// value was enqueued.
func (t *Task) SendTimeout(q *Queue, v any, d sim.Time) bool {
	q.send(t, v, d, true)
	t.suspend()
	return t.blockOK
}

// Recv dequeues a value from q, blocking while the queue is empty.
func (t *Task) Recv(q *Queue) any {
	q.recv(t, 0, false)
	t.suspend()
	return t.blockVal
}

// RecvTimeout dequeues a value from q, giving up after d. The boolean
// reports whether a value was received.
func (t *Task) RecvTimeout(q *Queue, d sim.Time) (any, bool) {
	q.recv(t, d, true)
	t.suspend()
	if !t.blockOK {
		return nil, false
	}
	return t.blockVal, true
}

// TrySend enqueues v without blocking; it reports whether there was room.
func (t *Task) TrySend(q *Queue, v any) bool {
	return t.SendTimeout(q, v, 0)
}

// TryRecv dequeues without blocking.
func (t *Task) TryRecv(q *Queue) (any, bool) {
	return t.RecvTimeout(q, 0)
}

// Take acquires one unit from the semaphore, blocking while none are
// available.
func (t *Task) Take(s *Semaphore) {
	s.take(t, 0, false)
	t.suspend()
}

// TakeTimeout acquires one unit from the semaphore, giving up after d.
func (t *Task) TakeTimeout(s *Semaphore, d sim.Time) bool {
	s.take(t, d, true)
	t.suspend()
	return t.blockOK
}

// Give releases one unit to the semaphore.
func (t *Task) Give(s *Semaphore) {
	s.give(t)
	t.suspend()
}

// Lock acquires mu, blocking while it is held. The holder's priority is
// boosted to the highest priority among waiters (priority inheritance).
func (t *Task) Lock(mu *Mutex) {
	mu.lock(t)
	t.suspend()
}

// Unlock releases mu, restoring the holder's inherited priority.
func (t *Task) Unlock(mu *Mutex) {
	mu.unlock(t)
	t.suspend()
}
