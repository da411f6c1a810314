// Package bvn implements Algorithm 1 of the paper: the integer
// Birkhoff–von Neumann decomposition.
//
// Given a non-negative integer matrix D with load ρ(D) (the maximum
// row or column sum), Step 1 augments D to a matrix D̃ ≥ D whose row
// and column sums all equal ρ(D), in at most 2m−1 augmentation steps.
// Step 2 repeatedly extracts a perfect matching on the support of D̃
// and subtracts it with the largest feasible multiplicity, producing
//
//	D̃ = Σ_{u=1..U} q_u · Π_u,   Σ q_u = ρ(D),   U ≤ m².
//
// Scheduling the matchings Π_u for q_u slots each therefore finishes
// the coflow D in exactly ρ(D) slots (Lemma 4), which is optimal.
package bvn

import (
	"fmt"

	"coflow/internal/matrix"
)

// Term is one weighted permutation in a decomposition: the matching
// Perm scheduled for Count consecutive time slots.
type Term struct {
	Count int64
	Perm  matrix.Permutation
}

// Decomposition is the result of Algorithm 1 on a coflow matrix.
type Decomposition struct {
	// Load is ρ(D), the total number of slots Σ q_u.
	Load int64
	// Terms are the weighted permutations, in extraction order.
	Terms []Term
	// m is the matrix dimension, kept for lazy D̃ reconstruction.
	m int
	// augmented caches the lazily reconstructed D̃ (see Augmented).
	augmented *matrix.Matrix
}

// Augmented returns D̃, the balanced matrix the terms sum to exactly.
// It is reconstructed lazily from the terms on first call and cached,
// so decompositions that never inspect D̃ — the common scheduling
// path — skip the O(m²) copy entirely.
func (dec *Decomposition) Augmented() *matrix.Matrix {
	if dec.augmented == nil {
		dec.augmented = dec.Sum(dec.m)
	}
	return dec.augmented
}

// augHeap is a lazy min-heap of (row/column sum snapshot, index)
// pairs driving Augment's min-deficit selection. Entries are never
// updated in place: a sum change simply pushes a fresh pair, and
// stale pairs (snapshot ≠ current sum) are dropped when popped.
type augHeap struct {
	sum []int64
	idx []int32
}

//coflow:allocfree
func (h *augHeap) reset() {
	h.sum = h.sum[:0]
	h.idx = h.idx[:0]
}

//coflow:allocfree
func (h *augHeap) push(sum int64, idx int32) {
	h.sum = append(h.sum, sum)
	h.idx = append(h.idx, idx)
	i := len(h.sum) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.sum[p] <= h.sum[i] {
			break
		}
		h.sum[p], h.sum[i] = h.sum[i], h.sum[p]
		h.idx[p], h.idx[i] = h.idx[i], h.idx[p]
		i = p
	}
}

//coflow:allocfree
func (h *augHeap) pop() (int64, int32) {
	s, x := h.sum[0], h.idx[0]
	last := len(h.sum) - 1
	h.sum[0], h.idx[0] = h.sum[last], h.idx[last]
	h.sum, h.idx = h.sum[:last], h.idx[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if r := c + 1; r < last && h.sum[r] < h.sum[c] {
			c = r
		}
		if h.sum[i] <= h.sum[c] {
			break
		}
		h.sum[i], h.sum[c] = h.sum[c], h.sum[i]
		h.idx[i], h.idx[c] = h.idx[c], h.idx[i]
		i = c
	}
	return s, x
}

// popDeficit pops until a fresh, unsaturated index surfaces: stale
// snapshots and sums already at ρ are discarded. It reports false
// when every remaining index is saturated.
//
//coflow:allocfree
func (h *augHeap) popDeficit(cur []int64, rho int64) (int32, bool) {
	for len(h.sum) > 0 {
		s, x := h.pop()
		if cur[x] == s && s < rho {
			return x, true
		}
	}
	return -1, false
}

// augScratch owns the reusable buffers of one augmentation run: the
// row/column sum vectors and the two deficit min-heaps. The zero
// value is ready after grow.
type augScratch struct {
	rows, cols       []int64
	rowHeap, colHeap augHeap
}

// grow (re)sizes the scratch for m×m inputs, reallocating only when
// the capacity is insufficient.
func (a *augScratch) grow(m int) {
	if cap(a.rows) < m {
		a.rows = make([]int64, m)
		a.cols = make([]int64, m)
		// Per heap: m initial pushes + one push per augmentation step
		// (≤ 2m−1 steps), so 3m capacity never reallocates.
		a.rowHeap.sum = make([]int64, 0, 3*m)
		a.rowHeap.idx = make([]int32, 0, 3*m)
		a.colHeap.sum = make([]int64, 0, 3*m)
		a.colHeap.idx = make([]int32, 0, 3*m)
	}
	a.rows = a.rows[:m]
	a.cols = a.cols[:m]
}

// augmentInto performs Step 1 of Algorithm 1 in place on dst (which
// already holds D) and returns ρ(D). Each step raises the entry at
// the (min row sum, min column sum) pair — found in O(log m) via the
// deficit heaps instead of the former O(m) scan — and saturates at
// least one of the two, so at most 2m−1 steps run.
//
//coflow:allocfree
func (a *augScratch) augmentInto(dst *matrix.Matrix) int64 {
	m := dst.Rows()
	rows := dst.RowSumsInto(a.rows)
	cols := dst.ColSumsInto(a.cols)
	var rho int64
	for i := range rows {
		if rows[i] > rho {
			rho = rows[i]
		}
		if cols[i] > rho {
			rho = cols[i]
		}
	}
	if rho == 0 {
		return 0
	}
	a.rowHeap.reset()
	a.colHeap.reset()
	for i := 0; i < m; i++ {
		if rows[i] < rho {
			a.rowHeap.push(rows[i], int32(i))
		}
		if cols[i] < rho {
			a.colHeap.push(cols[i], int32(i))
		}
	}
	for iter := 0; iter <= 2*m; iter++ {
		i, okR := a.rowHeap.popDeficit(rows, rho)
		j, okC := a.colHeap.popDeficit(cols, rho)
		if !okR || !okC {
			if okR != okC {
				// Σ row deficits always equals Σ column deficits, so
				// one side cannot drain before the other.
				panic("bvn: augment deficit imbalance (invariant violated)")
			}
			return rho
		}
		p := rho - rows[i]
		if c := rho - cols[j]; c < p {
			p = c
		}
		dst.Add(int(i), int(j), p)
		rows[i] += p
		cols[j] += p
		if rows[i] < rho {
			a.rowHeap.push(rows[i], i)
		}
		if cols[j] < rho {
			a.colHeap.push(cols[j], j)
		}
	}
	panic("bvn: Augment did not converge in 2m+1 iterations (invariant violated)")
}

// Augment performs Step 1 of Algorithm 1: it returns a copy of d with
// entries increased until every row and column sums to ρ(d). The input
// is not modified. A zero matrix is returned unchanged.
func Augment(d *matrix.Matrix) *matrix.Matrix {
	return AugmentInto(d.Clone(), d)
}

// AugmentInto is Augment writing into caller-owned storage: dst is
// overwritten with d and augmented in place (dst == d augments d
// itself). It returns dst. Reused across calls, the only remaining
// per-call cost is the scratch below, which a Decomposer amortizes
// away entirely.
func AugmentInto(dst, d *matrix.Matrix) *matrix.Matrix {
	if d.Rows() != d.Cols() {
		panic(fmt.Sprintf("bvn: Augment needs a square matrix, got %d×%d", d.Rows(), d.Cols()))
	}
	if dst != d {
		dst.CopyFrom(d)
	}
	var a augScratch
	a.grow(d.Rows())
	a.augmentInto(dst)
	return dst
}

// Clone returns a deep copy that owns its storage, for a result that
// must outlive the next call on the Decomposer that lent it.
func (d *Decomposition) Clone() *Decomposition {
	c := &Decomposition{Load: d.Load, Terms: make([]Term, len(d.Terms)), m: d.m}
	for i, t := range d.Terms {
		c.Terms[i] = Term{Count: t.Count, Perm: t.Perm.Clone()}
	}
	return c
}

// TotalSlots returns Σ q_u (equal to Load for a valid decomposition).
func (d *Decomposition) TotalSlots() int64 {
	var s int64
	for _, t := range d.Terms {
		s += t.Count
	}
	return s
}

// Sum reconstructs Σ q_u·Π_u as a matrix (equal to Augmented()).
func (d *Decomposition) Sum(m int) *matrix.Matrix {
	out := matrix.NewSquare(m)
	for _, t := range d.Terms {
		for i, j := range t.Perm.To {
			if j != matrix.Unmatched {
				out.Add(i, j, t.Count)
			}
		}
	}
	return out
}

// Verify checks every invariant of Lemma 4 against the original matrix
// d: the terms are perfect matchings with positive counts, Σ q_u =
// ρ(d), and the term sum Σ q_u·Π_u dominates d with all row/column
// sums equal to ρ(d). Together these certify the terms as a valid
// ρ(d)-slot schedule for d, independent of how they were produced. It
// returns the first violation found, or nil.
func (dec *Decomposition) Verify(d *matrix.Matrix) error {
	m := d.Rows()
	if dec.Load != d.Load() {
		return fmt.Errorf("bvn: decomposition load %d != ρ(D) %d", dec.Load, d.Load())
	}
	if got := dec.TotalSlots(); got != dec.Load {
		return fmt.Errorf("bvn: Σq_u = %d != ρ(D) = %d", got, dec.Load)
	}
	if len(dec.Terms) > m*m {
		return fmt.Errorf("bvn: %d terms exceeds m² = %d", len(dec.Terms), m*m)
	}
	for u, t := range dec.Terms {
		if t.Count <= 0 {
			return fmt.Errorf("bvn: term %d has count %d", u, t.Count)
		}
		if dec.Load > 0 && !t.Perm.IsPerfect() {
			return fmt.Errorf("bvn: term %d is not a perfect matching", u)
		}
	}
	sum := dec.Sum(m)
	if !sum.GE(d) {
		return fmt.Errorf("bvn: term sum does not dominate D")
	}
	if dec.Load > 0 {
		for i := 0; i < m; i++ {
			if rs := sum.RowSum(i); rs != dec.Load {
				return fmt.Errorf("bvn: term-sum row %d sums to %d, want %d", i, rs, dec.Load)
			}
			if cs := sum.ColSum(i); cs != dec.Load {
				return fmt.Errorf("bvn: term-sum col %d sums to %d, want %d", i, cs, dec.Load)
			}
		}
	}
	return nil
}
