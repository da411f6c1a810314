package obs

import "time"

// Span is a lightweight per-stage timer: Start captures the clock,
// End observes the elapsed seconds into the histogram. It is a value
// type — starting and ending a span never allocates — and the
// disabled mode costs exactly one nil check per call:
//
//	span := h.Start()   // h == nil: returns the zero Span, no clock read
//	...
//	span.End()          // zero Span: returns immediately
//
// Both methods are small enough for the inliner, so with a nil
// histogram the instrumentation compiles down to two predictable
// branches and the hot path's zero-allocation contract is untouched.
type Span struct {
	h     *Histogram
	start time.Time
}

// Start begins a span against h. On a nil histogram it returns the
// zero Span without reading the clock.
//
//coflow:allocfree
func (h *Histogram) Start() Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// End records the elapsed time since Start. The zero Span is a no-op.
//
//coflow:allocfree
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.Observe(time.Since(s.start).Seconds())
}
