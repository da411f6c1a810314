package stats

import "slices"

// Rolling keeps the most recent observations of a stream in a
// fixed-capacity ring and summarizes the current window on demand.
// A resident scheduler (cmd/coflowd) uses it for per-slot scheduler
// latencies and completed-coflow slowdowns: memory stays bounded no
// matter how long the daemon runs, while the summary tracks recent
// behaviour rather than the all-time mix.
//
// Beside the ring (arrival order, for eviction and Last) it keeps the
// same values in ascending order, so a summary never sorts: Observe
// costs two binary searches and one memmove over the values between
// the evicted and the inserted position, Summary one pass over the
// window when it changed since the last call and nothing otherwise.
// Neither allocates. Summary runs the tail Summarize runs after
// sorting, over the same ascending sequence, so every field equals
// (==) Summarize of the window; only the sign of a zero percentile may
// differ when the window mixes -0 and +0, which compare equal.
//
// Rolling is not safe for concurrent use; the daemon's single-writer
// loop owns it and publishes Summary() values in read-only snapshots.
type Rolling struct {
	buf     []float64 // ring, arrival order
	sorted  []float64 // the values of buf, ascending
	next    int       // ring write position
	total   int64     // observations ever seen
	summary Summary   // of sorted, when fresh
	fresh   bool      // no Observe since summary was computed
}

// NewRolling creates a window over the most recent capacity
// observations. It panics if capacity is not positive.
func NewRolling(capacity int) *Rolling {
	if capacity <= 0 {
		panic("stats: non-positive Rolling capacity")
	}
	return &Rolling{
		buf:    make([]float64, 0, capacity),
		sorted: make([]float64, 0, capacity),
	}
}

// Observe appends one value, evicting the oldest when the window is
// full. NaN has no place in an ordering and is dropped: it is not
// stored, Total does not advance and Last is unchanged. ±Inf are
// ordinary values.
//
//coflow:allocfree
func (r *Rolling) Observe(v float64) {
	if v != v {
		return
	}
	s := r.sorted
	// to is where v belongs: the first position holding a value >= v.
	to, _ := slices.BinarySearch(s, v)
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		s = s[:len(s)+1]
		copy(s[to+1:], s[to:])
		s[to] = v
		r.sorted = s
	} else {
		// The evicted value leaves a hole at from; close it towards to.
		from, _ := slices.BinarySearch(s, r.buf[r.next])
		r.buf[r.next] = v
		if to > from {
			to--
			copy(s[from:to], s[from+1:to+1])
		} else {
			copy(s[to+1:from+1], s[to:from])
		}
		s[to] = v
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.fresh = false
}

// Total returns the number of observations ever made (not just those
// still in the window).
func (r *Rolling) Total() int64 { return r.total }

// Last returns the most recent observation, or 0 before any.
func (r *Rolling) Last() float64 {
	if r.total == 0 {
		return 0
	}
	return r.buf[(r.next-1+cap(r.buf))%cap(r.buf)]
}

// Summary summarizes the current window.
//
//coflow:allocfree
func (r *Rolling) Summary() Summary {
	if !r.fresh {
		r.summary = summarizeSorted(r.sorted)
		r.fresh = true
	}
	return r.summary
}
