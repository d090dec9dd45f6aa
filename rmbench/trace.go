package main

import (
	"encoding/json"
	"io"
	"sort"
	"time"
)

// span is one timed call made by the benchmark: a top-level rmtest call
// or one layer call of a replayed simulation unit. Times are offsets from
// the tracer's epoch.
type span struct {
	ID, Parent int // Parent is -1 for a root span
	Iter       int // iteration the span belongs to
	Name       string
	Start, End time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is used from the
// benchmark's own goroutine only, so it needs no locking. A nil *tracer
// records nothing.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// scope is the place a new span hangs from: its parent and iteration.
type scope struct {
	t      *tracer
	parent int
	iter   int
}

// root returns the scope for the top-level spans of one iteration.
func (t *tracer) root(iter int) scope { return scope{t: t, parent: -1, iter: iter} }

// begin opens a span named name under s and returns the scope of its
// children and the function that closes it.
func (s scope) begin(name string) (scope, func()) {
	if s.t == nil {
		return s, func() {}
	}
	id := len(s.t.spans)
	s.t.spans = append(s.t.spans, span{ID: id, Parent: s.parent, Iter: s.iter, Name: name, Start: time.Since(s.t.epoch)})
	return scope{t: s.t, parent: id, iter: s.iter}, func() { s.t.spans[id].End = time.Since(s.t.epoch) }
}

// durations returns the durations of every span named name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTime returns a span's duration minus the part of its interval that
// its direct children cover. Overlapping children count once, and
// children are clipped to the parent's interval.
func selfTime(spans []span, id int) time.Duration {
	p := spans[id]
	type iv struct{ a, b time.Duration }
	var kids []iv
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		a, b := max(s.Start, p.Start), min(s.End, p.End)
		if a < b {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	covered := time.Duration(0)
	var cur iv
	for i, k := range kids {
		switch {
		case i == 0:
			cur = k
		case k.a <= cur.b:
			cur.b = max(cur.b, k.b)
		default:
			covered += cur.b - cur.a
			cur = k
		}
	}
	if len(kids) > 0 {
		covered += cur.b - cur.a
	}
	return p.dur() - covered
}

// chromeEvent is one complete ("X") event of the Chrome Trace Event
// format, which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome Trace Event JSON, one track per
// iteration, each event carrying its span id, parent id and self time.
func writeChrome(w io.Writer, spans []span, meta map[string]any) error {
	evs := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			PID: 1, TID: s.Iter,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "iter": s.Iter,
				"self_us": float64(selfTime(spans, s.ID).Nanoseconds()) / 1e3,
			},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     evs,
		"displayTimeUnit": "ms",
		"otherData":       meta,
	})
}
