// Package publish exercises the publish analyzer: a value handed to
// atomic.Pointer.Store is visible to concurrent
// readers and must be frozen.
package publish

import "sync/atomic"

type Snap struct {
	n    int
	vals []int
}

type Holder struct{ cur atomic.Pointer[Snap] }

// storeWrite mutates the snapshot after publishing it.
func storeWrite(h *Holder) {
	s := &Snap{}
	h.cur.Store(s)
	s.n = 7 // want "after s was published"
}

// elementWrite writes through an element of the published value on
// one branch.
func elementWrite(h *Holder, touch bool) {
	next := &Snap{vals: make([]int, 4)}
	h.cur.Store(next)
	if touch {
		next.vals[0] = 1 // want "after next was published"
	}
}

// aliasWrite mutates the published snapshot through a second name:
// the alias class is published as a whole.
func aliasWrite(h *Holder) {
	s := &Snap{}
	alias := s
	h.cur.Store(s)
	alias.n++ // want "after alias was published"
}

// buildThenStore does all its writing before publication: clean.
func buildThenStore(h *Holder) {
	s := &Snap{}
	s.n = 5
	s.vals = append(s.vals, 1)
	h.cur.Store(s)
}

// rebindAfterStore rebinds the name to a fresh snapshot after
// publishing: writes through the new value are clean.
func rebindAfterStore(h *Holder) {
	s := &Snap{}
	h.cur.Store(s)
	s = &Snap{}
	s.n = 3
	h.cur.Store(s)
}
