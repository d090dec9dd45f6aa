package hw

import "rmtest/internal/sim"

// Snapshot/restore support for platform.System.Snapshot/Restore.
// Devices capture their latch/command state, fault-window cursors and
// pseudo-random stream positions; pending device events (sample ticks,
// deferred jitter commits, in-flight actuation effects, fault window
// edges) live on the kernel heap and are captured and replayed there.
// Each such closure encodes one fixed pending effect acting on the
// device state a restore rewrites, so replaying it verbatim reproduces
// the original timeline.

type sensorSnap struct {
	latched      int64
	candidate    int64
	stable       int
	samples      uint64
	latchedAt    sim.Time
	stuckUntil   sim.Time
	stuckValue   int64
	stuck        bool
	jitFrom      sim.Time
	jitTo        sim.Time
	jitMax       sim.Time
	jitSeq       uint64
	jitApplied   uint64
	jitPending   int64
	dropping     bool
	droppedReads uint64
	rngState     uint64
	hasRng       bool
	jitRngState  uint64
	hasJitRng    bool
	tickerTicks  uint64
	tickerDrift  int64
	hasTicker    bool
}

type actuatorSnap struct {
	commands  uint64
	lastCmd   int64
	deadFrom  sim.Time
	deadTo    sim.Time
	ignored   uint64
	slowFrom  sim.Time
	slowTo    sim.Time
	slowExtra sim.Time
}

// BoardSnap is a capture of every device's state, created by Snapshot
// and consumed by Restore. It is opaque to callers.
type BoardSnap struct {
	sensors   map[string]sensorSnap
	actuators map[string]actuatorSnap
}

// Snapshot captures the state of every sensor and actuator on the
// board: latches, debounce and fault cursors, injected-fault windows and
// the exact positions of the deterministic jitter streams.
func (b *Board) Snapshot() *BoardSnap {
	snap := &BoardSnap{
		sensors:   make(map[string]sensorSnap, len(b.sensors)),
		actuators: make(map[string]actuatorSnap, len(b.actuators)),
	}
	for name, s := range b.sensors {
		ss := sensorSnap{
			latched:      s.latched,
			candidate:    s.candidate,
			stable:       s.stable,
			samples:      s.samples,
			latchedAt:    s.latchedAt,
			stuckUntil:   s.stuckUntil,
			stuckValue:   s.stuckValue,
			stuck:        s.stuck,
			jitFrom:      s.jitFrom,
			jitTo:        s.jitTo,
			jitMax:       s.jitMax,
			jitSeq:       s.jitSeq,
			jitApplied:   s.jitApplied,
			jitPending:   s.jitPending,
			dropping:     s.dropping,
			droppedReads: s.droppedReads,
		}
		if s.rng != nil {
			ss.rngState, ss.hasRng = s.rng.State(), true
		}
		if s.jitRng != nil {
			ss.jitRngState, ss.hasJitRng = s.jitRng.State(), true
		}
		if s.ticker != nil {
			ss.tickerTicks, ss.tickerDrift, ss.hasTicker = s.ticker.Ticks(), s.ticker.Drift(), true
		}
		snap.sensors[name] = ss
	}
	for name, a := range b.actuators {
		snap.actuators[name] = actuatorSnap{
			commands:  a.commands,
			lastCmd:   a.lastCmd,
			deadFrom:  a.deadFrom,
			deadTo:    a.deadTo,
			ignored:   a.ignored,
			slowFrom:  a.slowFrom,
			slowTo:    a.slowTo,
			slowExtra: a.slowExtra,
		}
	}
	return snap
}

// Restore rewrites every device's state from a snapshot taken on the
// same board. A jitter-fault stream that did not exist at the snapshot
// is dropped; one that did has its position rewound exactly.
func (b *Board) Restore(snap *BoardSnap) {
	for name, ss := range snap.sensors {
		s := b.sensors[name]
		s.latched = ss.latched
		s.candidate = ss.candidate
		s.stable = ss.stable
		s.samples = ss.samples
		s.latchedAt = ss.latchedAt
		s.stuckUntil = ss.stuckUntil
		s.stuckValue = ss.stuckValue
		s.stuck = ss.stuck
		s.jitFrom = ss.jitFrom
		s.jitTo = ss.jitTo
		s.jitMax = ss.jitMax
		s.jitSeq = ss.jitSeq
		s.jitApplied = ss.jitApplied
		s.jitPending = ss.jitPending
		s.dropping = ss.dropping
		s.droppedReads = ss.droppedReads
		if ss.hasRng {
			s.rng.SetState(ss.rngState)
		}
		if ss.hasJitRng {
			s.jitRng.SetState(ss.jitRngState)
		} else {
			s.jitRng = nil
		}
		if ss.hasTicker {
			s.ticker.SetTicks(ss.tickerTicks)
			s.ticker.SetDrift(ss.tickerDrift)
		}
	}
	for name, as := range snap.actuators {
		a := b.actuators[name]
		a.commands = as.commands
		a.lastCmd = as.lastCmd
		a.deadFrom = as.deadFrom
		a.deadTo = as.deadTo
		a.ignored = as.ignored
		a.slowFrom = as.slowFrom
		a.slowTo = as.slowTo
		a.slowExtra = as.slowExtra
	}
}
