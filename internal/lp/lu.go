package lp

// Sparse LU factorization of the simplex basis, plus product-form
// (eta) updates. This is the linear-algebra core of the revised
// simplex in sparse.go: the basis matrix B (m×m, columns of the
// standard-form constraint matrix) is factored as P·B = L·U by
// left-looking Gaussian elimination with partial pivoting, and basis
// changes between refactorizations are absorbed as eta matrices
// (B_new = B_old·E with E = I + (w − e_r)·e_rᵀ, w = B_old⁻¹·a_enter).
//
// Coordinate conventions, used consistently by ftran/btran:
//
//   - "row coordinates": indices into the original constraint rows
//     (the space right-hand sides and dual values live in);
//   - "position coordinates": indices into the basis column order
//     (the space basic-variable values live in). Factorization step k
//     eliminates basis column k, so elimination steps and basis
//     positions coincide.
//
// rowOf[k] is the original row chosen as the pivot of step k;
// pos[rowOf[k]] = k inverts it.
//
// The factorization and BTRAN are hypersparse: factor eliminates each
// column against only the earlier steps it reaches, and BTRAN skips
// every product with an exactly zero operand. Neither changes an
// operation on the terms that remain or their order, so the factors
// and solves are those of the full-scan kernels in reference_test.go
// (BTRAN's up to the sign of a zero). A fill-reducing (Markowitz)
// column order would cut more work but changes rounding, and with it
// possibly the optimal vertex; it is deliberately not done.

import (
	"errors"
	"math"
	"math/bits"
)

// spCol is one sparse column: parallel index/value slices.
type spCol struct {
	ind []int
	val []float64
}

// errSingular reports a numerically singular basis; the caller
// refactorizes or falls back to the dense solver.
var errSingular = errors.New("lp: singular basis")

const (
	// luPivotTol is the minimum acceptable pivot magnitude during
	// factorization; below it the basis is treated as singular.
	luPivotTol = 1e-11
	// etaDropTol drops negligible eta entries to keep updates sparse.
	etaDropTol = 1e-13
	// refactorEvery bounds the eta file length; past it the basis is
	// refactored from scratch, which also resets accumulated roundoff.
	refactorEvery = 64
)

// luFactors is one P·B = L·U factorization. Its storage belongs to the
// Solver that embeds it and is resliced, not reallocated, from one
// factorization and one solve to the next.
type luFactors struct {
	m     int
	rowOf []int // rowOf[k]: original row pivoted at step k
	pos   []int // pos[origRow]: step that pivoted it, -1 while free

	// L is unit lower triangular in step coordinates, stored by column in
	// one arena: column k is lInd/lVal[lPtr[k]:lPtr[k+1]]. While factor
	// runs lInd holds ORIGINAL rows (the later steps are not chosen yet);
	// factor rewrites them to the steps that pivoted those rows before it
	// returns, so both solves index position coordinates directly.
	lPtr []int
	lInd []int
	lVal []float64
	// lReaders[lrPtr[s]:lrPtr[s+1]] are the L columns with an entry at
	// step s: the Lᵀ dots that read v_s in BTRAN.
	lrPtr    []int
	lReaders []int

	// U is upper triangular in step coordinates, stored the same way:
	// column k holds entries u_jk for steps j < k in ascending j, plus
	// diag[k] = u_kk. urPtr/urCol/urVal is the same U by row (ascending
	// column within a row), for BTRAN's scatter-form Uᵀ solve.
	uPtr  []int
	uRow  []int
	uVal  []float64
	diag  []float64
	urPtr []int
	urCol []int
	urVal []float64

	work    []float64 // dense scratch in row coordinates, len m
	inTouch []bool    // membership marker for the factor scratch list
	touched []int     // scratch entries to re-zero between columns
	reach   []uint64  // bitmap of the earlier steps a column may reach
	next    []int     // transpose fill cursors, len m
	live    []bool    // BTRAN: the Lᵀ dot of step k has a nonzero operand
}

// grow returns s resliced to n zeroed elements, allocating only when
// its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// reset sizes the factor storage for an m×m basis.
func (f *luFactors) reset(m int) {
	f.m = m
	f.rowOf = grow(f.rowOf, m)
	f.pos = grow(f.pos, m)
	f.lPtr = grow(f.lPtr, m+1)
	f.lrPtr = grow(f.lrPtr, m+1)
	f.uPtr = grow(f.uPtr, m+1)
	f.urPtr = grow(f.urPtr, m+1)
	f.diag = grow(f.diag, m)
	f.work = grow(f.work, m)
	f.inTouch = grow(f.inTouch, m)
	f.reach = grow(f.reach, (m+63)/64)
	f.next = grow(f.next, m)
	f.live = grow(f.live, m)
}

// factor computes P·B = L·U for the basis whose k-th column is
// cols[basis[k]]. Returns errSingular when no acceptable pivot exists.
//
// Column k is eliminated against only the earlier steps it can reach:
// the steps of the pivoted rows its own entries sit in, and, as each
// step's L column is applied, the steps of the pivoted rows that column
// touches. The reach bitmap hands them out in ascending step order, the
// order a scan of every j < k would meet them in, and a step whose
// value is exactly zero is skipped as that scan skips it: the U entries
// and every rounding are the full scan's.
func (f *luFactors) factor(cols []spCol, basis []int) error {
	m := f.m
	for r := 0; r < m; r++ {
		f.pos[r] = -1
		f.work[r] = 0
		f.inTouch[r] = false
	}
	f.lInd, f.lVal = f.lInd[:0], f.lVal[:0]
	f.uRow, f.uVal = f.uRow[:0], f.uVal[:0]
	// touched tracks scratch entries to re-zero between columns; the
	// inTouch marker keeps it duplicate-free even when a value cancels
	// to exactly zero and is touched again.
	touched := f.touched[:0]
	for k := 0; k < m; k++ {
		c := cols[basis[k]]
		for i, r := range c.ind {
			if !f.inTouch[r] {
				f.inTouch[r] = true
				touched = append(touched, r)
			}
			f.work[r] += c.val[i]
			if s := f.pos[r]; s >= 0 {
				f.reach[s>>6] |= 1 << (s & 63)
			}
		}
		// Left-looking elimination: apply the reached columns'
		// multipliers; the consumed value at each earlier pivot row is a
		// U entry of this column. An L column only holds rows pivoted
		// after its own step, so the bits it sets are ahead of the scan.
		for w := 0; w<<6 < k; w++ {
			for f.reach[w] != 0 {
				b := bits.TrailingZeros64(f.reach[w])
				f.reach[w] &^= 1 << b
				j := w<<6 | b
				t := f.work[f.rowOf[j]]
				if t == 0 {
					continue
				}
				f.uRow = append(f.uRow, j)
				f.uVal = append(f.uVal, t)
				rows, vals := f.lInd[f.lPtr[j]:f.lPtr[j+1]], f.lVal[f.lPtr[j]:f.lPtr[j+1]]
				for i, r := range rows {
					if !f.inTouch[r] {
						f.inTouch[r] = true
						touched = append(touched, r)
					}
					f.work[r] -= vals[i] * t
					if s := f.pos[r]; s >= 0 {
						f.reach[s>>6] |= 1 << (s & 63)
					}
				}
			}
		}
		f.uPtr[k+1] = len(f.uRow)
		// Partial pivoting over the still-free rows.
		pivRow, pivMag := -1, luPivotTol
		for _, r := range touched {
			if f.pos[r] >= 0 {
				continue
			}
			if mag := math.Abs(f.work[r]); mag > pivMag {
				pivRow, pivMag = r, mag
			}
		}
		if pivRow < 0 {
			for _, r := range touched {
				f.work[r] = 0
				f.inTouch[r] = false
			}
			f.touched = touched
			return errSingular
		}
		piv := f.work[pivRow]
		f.rowOf[k] = pivRow
		f.pos[pivRow] = k
		f.diag[k] = piv
		inv := 1 / piv
		for _, r := range touched {
			if f.pos[r] >= 0 || f.work[r] == 0 {
				continue
			}
			f.lInd = append(f.lInd, r)
			f.lVal = append(f.lVal, f.work[r]*inv)
		}
		f.lPtr[k+1] = len(f.lInd)
		for _, r := range touched {
			f.work[r] = 0
			f.inTouch[r] = false
		}
		touched = touched[:0]
	}
	f.touched = touched
	for i, r := range f.lInd {
		f.lInd[i] = f.pos[r]
	}
	f.lReaders, _ = f.transpose(f.lPtr, f.lInd, nil, f.lrPtr, f.lReaders, nil)
	f.urCol, f.urVal = f.transpose(f.uPtr, f.uRow, f.uVal, f.urPtr, f.urCol, f.urVal)
	return nil
}

// transpose writes the row-wise copy of a triangle stored by column
// (colPtr, ind, vals) in step coordinates: row s is cols/out[rowPtr[s]:
// rowPtr[s+1]], the columns with an entry in row s in ascending order
// and their values. With vals nil only the pattern is copied.
func (f *luFactors) transpose(colPtr, ind []int, vals []float64, rowPtr, cols []int, out []float64) ([]int, []float64) {
	clear(rowPtr)
	for _, s := range ind {
		rowPtr[s+1]++
	}
	for s := 0; s < f.m; s++ {
		rowPtr[s+1] += rowPtr[s]
	}
	cols = grow(cols, len(ind))
	if vals != nil {
		out = grow(out, len(ind))
	}
	copy(f.next, rowPtr[:f.m])
	for k := 0; k < f.m; k++ {
		for i := colPtr[k]; i < colPtr[k+1]; i++ {
			s := ind[i]
			at := f.next[s]
			f.next[s]++
			cols[at] = k
			if vals != nil {
				out[at] = vals[i]
			}
		}
	}
	return cols, out
}

// ftranLU solves B·z = b. b is dense in row coordinates and is only
// read; z is dense in position coordinates and is solved in place.
func (f *luFactors) ftranLU(b, z []float64) {
	for k := 0; k < f.m; k++ {
		z[k] = b[f.rowOf[k]]
	}
	// L solve, forward, column-oriented.
	for k := 0; k < f.m; k++ {
		t := z[k]
		if t == 0 {
			continue
		}
		steps, vals := f.lInd[f.lPtr[k]:f.lPtr[k+1]], f.lVal[f.lPtr[k]:f.lPtr[k+1]]
		for i, s := range steps {
			z[s] -= vals[i] * t
		}
	}
	// U solve, backward, column-oriented: once z_k is known, its
	// contribution u_jk·z_k is pulled out of every earlier z_j.
	for k := f.m - 1; k >= 0; k-- {
		t := z[k] / f.diag[k]
		z[k] = t
		if t == 0 {
			continue
		}
		steps, vals := f.uRow[f.uPtr[k]:f.uPtr[k+1]], f.uVal[f.uPtr[k]:f.uPtr[k+1]]
		for i, j := range steps {
			z[j] -= vals[i] * t
		}
	}
}

// btranLU solves Bᵀ·y = c. c is dense in position coordinates and is
// consumed as scratch; y is dense in row coordinates.
//
// Both triangles skip only products whose operand is exactly zero, and
// every other product reaches its accumulator in the order of the dot
// forms w_k = (c_k − Σ_j u_jk·w_j)/u_kk (j ascending) and v_k = w_k −
// Σ_i l_ik·v_i (L column order), so the result is theirs up to the sign
// of a zero.
func (f *luFactors) btranLU(c, y []float64) {
	// Uᵀ·w = c, forward, scatter form over U's rows: once w_k is final
	// it is pulled out of every later entry it feeds, and an entry
	// receives its terms in ascending k, its U column's order. w is
	// computed in place in c.
	for k := 0; k < f.m; k++ {
		t := c[k] / f.diag[k]
		c[k] = t
		if t == 0 {
			continue
		}
		cols, vals := f.urCol[f.urPtr[k]:f.urPtr[k+1]], f.urVal[f.urPtr[k]:f.urPtr[k+1]]
		for i, j := range cols {
			c[j] -= vals[i] * t
		}
	}
	// Lᵀ·v = w, backward, dot form: column k of L touches only later
	// steps, whose v entries are already final, so the solve runs in
	// place in c as well. A dot runs only when live marks a nonzero
	// operand; otherwise v_k = w_k exactly.
	for k := f.m - 1; k >= 0; k-- {
		t := c[k]
		if f.live[k] {
			f.live[k] = false
			steps, vals := f.lInd[f.lPtr[k]:f.lPtr[k+1]], f.lVal[f.lPtr[k]:f.lPtr[k+1]]
			for i, s := range steps {
				t -= vals[i] * c[s]
			}
			c[k] = t
		}
		if t != 0 {
			for _, j := range f.lReaders[f.lrPtr[k]:f.lrPtr[k+1]] {
				f.live[j] = true
			}
		}
	}
	// Undo the row permutation: y = Pᵀ·v.
	for k := 0; k < f.m; k++ {
		y[f.rowOf[k]] = c[k]
	}
}

// eta is one product-form update: the basis column at position r was
// replaced, with w = B_old⁻¹·a_enter. Its entries, which exclude
// position r (stored as wr), are etaInd/etaVal[lo:hi] of the file.
type eta struct {
	r      int
	wr     float64
	lo, hi int
}

// basisLU maintains B⁻¹ across pivots: an LU factorization plus an
// eta file, refactored when the file reaches refactorEvery. The file's
// entries sit in two flat arenas that a refactorization truncates and
// the next pivots refill.
type basisLU struct {
	lu     luFactors
	etas   []eta
	etaInd []int
	etaVal []float64
}

// refactor rebuilds the LU factors from the current basis columns and
// clears the eta file.
func (b *basisLU) refactor(cols []spCol, basis []int) error {
	b.etas, b.etaInd, b.etaVal = b.etas[:0], b.etaInd[:0], b.etaVal[:0]
	return b.lu.factor(cols, basis)
}

// needsRefactor reports whether the eta file is full.
func (b *basisLU) needsRefactor() bool { return len(b.etas) >= refactorEvery }

// push records the pivot (position r, FTRAN column w) as an eta.
// Returns errSingular when the pivot element is numerically zero.
func (b *basisLU) push(r int, w []float64) error {
	if math.Abs(w[r]) <= luPivotTol {
		return errSingular
	}
	lo := len(b.etaInd)
	for i, v := range w {
		if i != r && math.Abs(v) > etaDropTol {
			b.etaInd = append(b.etaInd, i)
			b.etaVal = append(b.etaVal, v)
		}
	}
	b.etas = append(b.etas, eta{r: r, wr: w[r], lo: lo, hi: len(b.etaInd)})
	return nil
}

// ftran solves B·z = b with the current factors (LU then etas in
// creation order). b is dense in row coordinates and is only read;
// z is dense in position coordinates.
func (b *basisLU) ftran(rhs, z []float64) {
	b.lu.ftranLU(rhs, z)
	for _, e := range b.etas {
		t := z[e.r] / e.wr
		if t != 0 {
			val := b.etaVal[e.lo:e.hi]
			for j, p := range b.etaInd[e.lo:e.hi] {
				z[p] -= val[j] * t
			}
		}
		z[e.r] = t
	}
}

// btran solves Bᵀ·y = c with the current factors (etas in reverse
// order, then LUᵀ). c is dense in position coordinates and is
// consumed; y is dense in row coordinates.
func (b *basisLU) btran(c, y []float64) {
	for i := len(b.etas) - 1; i >= 0; i-- {
		e := b.etas[i]
		dot := 0.0
		val := b.etaVal[e.lo:e.hi]
		for j, p := range b.etaInd[e.lo:e.hi] {
			dot += val[j] * c[p]
		}
		c[e.r] = (c[e.r] - dot) / e.wr
	}
	b.lu.btranLU(c, y)
}
