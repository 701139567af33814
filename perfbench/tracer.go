package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call into a layer of the simulator, recorded by the
// benchmark around the public function it calls. Spans of one iteration,
// round or job share an ID; Parent is the Seq of the enclosing span (-1 for
// a root). Attrs carries the counts measured at the same boundary, so
// ratios are taken where the work happens.
type Span struct {
	ID     int                `json:"id"`
	Seq    int                `json:"seq"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  float64            `json:"start_us"`
	End    float64            `json:"end_us"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// Dur is the span's duration in seconds.
func (s Span) Dur() float64 { return (s.End - s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so the measured paths are the
// same code with tracing off.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.epoch).Nanoseconds()) / 1e3 }

// begin opens a span and returns its Seq (-1 when tracing is off).
func (t *tracer) begin(id, parent int, name string) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	seq := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Seq: seq, Parent: parent, Name: name, Start: start, End: start})
	return seq
}

// end closes a span opened by begin and attaches its counts.
func (t *tracer) end(seq int, attrs map[string]float64) {
	if t == nil || seq < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[seq].End = end
	t.spans[seq].Attrs = attrs
}

// mark records an instant span (start == end), such as a cell event.
func (t *tracer) mark(id, parent int, name string, attrs map[string]float64) {
	t.end(t.begin(id, parent, name), attrs)
}

// named returns a snapshot of the spans called name, in recording order.
func (t *tracer) named(name string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations (seconds) of the spans called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, s.Dur())
	}
	return out
}

// sum totals one attribute over the spans called name.
func (t *tracer) sum(name, attr string) float64 {
	total := 0.0
	for _, s := range t.named(name) {
		total += s.Attrs[attr]
	}
	return total
}

// write dumps every span as one JSON line to dir/<file>.
func (t *tracer) write(dir, file string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
