package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Start: 20 * ms, End: 50 * ms},  // overlaps span 1: counted once
		{ID: 3, Parent: 0, Start: 90 * ms, End: 120 * ms}, // clipped to the parent's end
		{ID: 4, Parent: 1, Start: 12 * ms, End: 14 * ms},  // grandchild: covered by span 1 already
		{ID: 5, Parent: -1, Start: 0, End: 7 * ms},        // another root, no children
	}
	for _, tc := range []struct {
		id   int
		want time.Duration
	}{
		{0, 50 * ms}, // 100 - ([10,50] + [90,100])
		{1, 18 * ms},
		{2, 30 * ms},
		{4, 2 * ms},
		{5, 7 * ms},
	} {
		if got := selfTime(spans, tc.id); got != tc.want {
			t.Errorf("selfTime(span %d) = %v, want %v", tc.id, got, tc.want)
		}
	}
}

func TestScopeNestingAndChromeExport(t *testing.T) {
	tr := newTracer()
	s, endIter := tr.root(3).begin("iteration")
	_, endCall := s.begin("call")
	endCall()
	endIter()
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].Iter != 3 {
		t.Fatalf("unexpected spans %+v", tr.spans)
	}
	var nilScope scope
	if _, end := nilScope.begin("ignored"); end == nil {
		t.Fatal("a nil tracer must still return an end function")
	}

	var buf bytes.Buffer
	if err := writeChrome(&buf, tr.spans, map[string]any{"workload": "test"}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "call" || doc.TraceEvents[1].Ph != "X" || doc.TraceEvents[1].TID != 3 {
		t.Fatalf("unexpected trace events %+v", doc.TraceEvents)
	}
}
