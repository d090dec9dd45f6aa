package env

import "rmtest/internal/sim"

// Snapshot/restore support for platform.System.Snapshot/Restore.
// Only signal values and their change bookkeeping are captured; watcher
// lists are structural (wired once at system construction) and pending
// SetAt/PulseAt stimuli live on the kernel heap, which captures and
// replays them generically.

type signalSnap struct {
	value   int64
	lastSet sim.Time
	changes uint64
}

// EnvSnap is a capture of every signal's value state, created by
// Snapshot and consumed by Restore. It is opaque to callers.
type EnvSnap struct {
	signals map[string]signalSnap
}

// Snapshot captures the current value, last-change instant and change
// count of every defined signal.
func (e *Environment) Snapshot() *EnvSnap {
	snap := &EnvSnap{signals: make(map[string]signalSnap, len(e.signals))}
	for name, s := range e.signals {
		snap.signals[name] = signalSnap{value: s.value, lastSet: s.lastSet, changes: s.changes}
	}
	return snap
}

// Restore rewrites every signal's value state from a snapshot taken on
// the same environment. Watchers are not invoked — a restore is a rewind
// of history, not a new m-event. Signals are never defined mid-run, so a
// count mismatch indicates a snapshot from a different environment.
func (e *Environment) Restore(snap *EnvSnap) {
	if len(snap.signals) != len(e.signals) {
		panic("env: Restore with a snapshot from a different environment")
	}
	for name, ss := range snap.signals {
		s := e.signals[name]
		if s == nil {
			panic("env: Restore with a snapshot from a different environment")
		}
		s.value = ss.value
		s.lastSet = ss.lastSet
		s.changes = ss.changes
	}
}
