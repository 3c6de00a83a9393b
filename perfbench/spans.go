package main

import (
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans carry parent IDs so the benchmark can tell a layer's own time from
// the time of the calls nested inside it; they stay in memory until the
// run ends.
type span struct {
	ID, Parent int
	Name       string
	Dur        time.Duration
}

// spanTree collects the benchmark's own spans. Safe for concurrent use.
type spanTree struct {
	mu    sync.Mutex
	spans []span
}

// start opens a span under parent (0 for a root) and returns its ID and the
// closure that ends it.
func (t *spanTree) start(parent int, name string) (int, func()) {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name})
	t.mu.Unlock()
	begin := time.Now()
	return id, func() {
		d := time.Since(begin)
		t.mu.Lock()
		t.spans[id-1].Dur = d
		t.mu.Unlock()
	}
}

// selfTime sums, per span name, each span's duration minus the durations
// of its direct children, in milliseconds.
func (t *spanTree) selfTime() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.Dur
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		out[s.Name] += float64(s.Dur-child[s.ID]) / float64(time.Millisecond)
	}
	return out
}
