// Package obsguard exercises the obsguard analyzer: a span from any
// Start method returning a type named Span must reach End on every
// return path.
package obsguard

import (
	"errors"
	"time"
)

var errNope = errors.New("nope")

// Histogram provides Start so spans exist in this package.
type Histogram struct{ sum float64 }

// Span is the stage timer; End settles it.
type Span struct {
	h     *Histogram
	start time.Time
}

// Start hands out a span.
func (h *Histogram) Start() Span { return Span{h: h, start: time.Now()} }

// End observes the elapsed time.
func (s Span) End() {
	if s.h != nil {
		s.h.sum += time.Since(s.start).Seconds()
	}
}

// allEnds settles the span on both return paths: clean.
func allEnds(h *Histogram, fail bool) error {
	sp := h.Start()
	if fail {
		sp.End()
		return errNope
	}
	sp.End()
	return nil
}

// leaks forgets the span on the early-error path.
func leaks(h *Histogram, fail bool) error {
	sp := h.Start() // want "does not reach"
	if fail {
		return errNope
	}
	sp.End()
	return nil
}

// fallsOff forgets the span on the implicit return at the closing
// brace.
func fallsOff(h *Histogram, fail bool) {
	sp := h.Start() // want "does not reach"
	if fail {
		sp.End()
	}
}

// panics leaves by panic on the unsettled path, which is not a return
// path: clean.
func panics(h *Histogram, fail bool) {
	sp := h.Start()
	if fail {
		panic(errNope)
	}
	sp.End()
}

// deferred covers every path with one defer: clean.
func deferred(h *Histogram, fail bool) error {
	sp := h.Start()
	defer sp.End()
	if fail {
		return errNope
	}
	return nil
}

// inLiteral checks a function literal against its own CFG.
func inLiteral(h *Histogram) func(bool) error {
	return func(fail bool) error {
		sp := h.Start() // want "does not reach"
		if fail {
			return errNope
		}
		sp.End()
		return nil
	}
}

// passesOn hands the span to another function, which is assumed to
// manage it: clean.
func passesOn(h *Histogram) {
	sp := h.Start()
	keep(sp)
}

func keep(Span) {}
