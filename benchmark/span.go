package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// maxSpans bounds the in-memory trace; spans past it are counted and
// dropped, so a long traced run cannot grow without limit.
const maxSpans = 400_000

// span is one timed call into a layer. Parent is the index of the span
// whose call this one sits inside (-1 for a root); Op ties together
// the spans of one operation (a schedule, a slot, a request). A shadow
// pass runs a lower layer on its own after the call it belongs to, so
// a child span may start after its parent ended: the link says where
// the time would be spent, and self time is span minus children.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	Op      int64  `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans in memory; the per-layer timing metrics are
// statistics over the spans of one name. The nil tracer is tracing
// switched off: time still runs the call, and nothing is recorded. Not
// safe for concurrent use; the HTTP clients each own one and merge at
// the end.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// time runs f as a span called name under parent and returns the
// span's index, for use as the parent of the calls f stands above.
func (t *tracer) time(name string, parent int, op int64, f func()) int {
	if t == nil {
		f()
		return -1
	}
	start := time.Now()
	f()
	end := time.Now()
	return t.add(name, parent, op, start, end)
}

// add records a span measured by the caller.
func (t *tracer) add(name string, parent int, op int64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Op: op,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// merge folds another tracer's spans into t, re-basing parent links.
func (t *tracer) merge(o *tracer) {
	if t == nil || o == nil {
		return
	}
	base := len(t.spans)
	shift := o.t0.Sub(t.t0).Nanoseconds()
	for _, s := range o.spans {
		if len(t.spans) >= maxSpans {
			t.dropped++
			continue
		}
		if s.Parent >= 0 {
			s.Parent += base
		}
		s.StartNs += shift
		s.EndNs += shift
		t.spans = append(t.spans, s)
	}
	t.dropped += o.dropped
}

// scaled returns the durations of every span called name, in seconds
// times unit (1e3 for ms, 1e6 for µs).
func (t *tracer) scaled(name string, unit float64) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e9*unit)
		}
	}
	return out
}

// total returns the summed duration of every span called name, in
// seconds.
func (t *tracer) total(name string) float64 {
	var sum float64
	for _, d := range t.scaled(name, 1) {
		sum += d
	}
	return sum
}

// write dumps the trace as JSON to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(map[string]any{"dropped": t.dropped, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
