package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the harness's side of
// the call. Parent 0 means the span is a top-level step of its op.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. The product carries no
// tracing of its own yet, so every span is opened and closed here, around
// calls into the layers' public functions.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, op, parent int) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: now})
	return id
}

func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNS = now
	return s.dur()
}

// run times fn as a span and returns its duration.
func (t *tracer) run(name string, op, parent int, fn func() error) (time.Duration, error) {
	id := t.begin(name, op, parent)
	err := fn()
	return t.end(id), err
}

// record adds a finished top-level span that ended at end and lasted d; the
// span is its own op. Client goroutines use it after timing a request.
func (t *tracer) record(name string, end time.Time, d time.Duration) {
	endNS := end.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Op: id, Name: name, StartNS: endNS - d.Nanoseconds(), EndNS: endNS})
}

// carve records a child span of known length at the start of its parent:
// time the harness can attribute (by re-running the parent warm) but cannot
// bracket, because the call happens inside the product.
func (t *tracer) carve(name string, parent int, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	if d < 0 {
		d = 0
	}
	if d > p.dur() {
		d = p.dur()
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: p.Op, Name: name,
		StartNS: p.StartNS, EndNS: p.StartNS + d.Nanoseconds(),
	})
}

// durations returns every span of the given name, in milliseconds.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover. Spans whose name starts with "probe." are measurement
// passes outside the op and are left out, with their subtrees.
func (t *tracer) selfTimes() (self map[string]time.Duration, topLevel time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int]time.Duration, len(t.spans))
	probe := make(map[int]bool)
	for _, s := range t.spans {
		if isProbe(s.Name) || probe[s.Parent] {
			probe[s.ID] = true
			continue
		}
		children[s.Parent] += s.dur()
	}
	self = make(map[string]time.Duration)
	for _, s := range t.spans {
		if probe[s.ID] {
			continue
		}
		self[s.Name] += s.dur() - children[s.ID]
		if s.Parent == 0 {
			topLevel += s.dur()
		}
	}
	return self, topLevel
}

func isProbe(name string) bool { return strings.HasPrefix(name, "probe.") }

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
