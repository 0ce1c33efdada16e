package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one point or
// request share Trace; Parent links a child to the span that caused it
// (0 for a root). Counts measured inside the interval go in Attrs.
type span struct {
	ID      int              `json:"id"`
	Parent  int              `json:"parent,omitempty"`
	Trace   string           `json:"trace"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
	Events  []event          `json:"events,omitempty"`
}

// event is a named instant inside a span.
type event struct {
	Name string `json:"name"`
	AtNS int64  `json:"at_ns"`
}

func (s span) durNS() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run ends; times are
// nanoseconds since the tracer was made.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return tm.Sub(t.t0).Nanoseconds() }

// record stores a root span and its children, assigning IDs and linking
// each child to the root.
func (t *tracer) record(root span, children []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root.ID = len(t.spans) + 1
	t.spans = append(t.spans, root)
	for _, c := range children {
		c.ID = len(t.spans) + 1
		c.Parent = root.ID
		c.Trace = root.Trace
		t.spans = append(t.spans, c)
	}
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfNS returns each span name's total self time: its spans' durations
// minus the parts their child spans cover. Children of one span never
// overlap here (a point's phases run in sequence), so covering time is
// the sum of the children's durations.
func selfNS(spans []span) map[string]int64 {
	childNS := map[int]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			childNS[s.Parent] += s.durNS()
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.durNS() - childNS[s.ID]
	}
	return out
}

// write saves the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.all()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
