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

import (
	"errors"
	"math"
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
	// one arena: column k is lRow/lVal[lPtr[k]:lPtr[k+1]], multipliers
	// indexed by ORIGINAL row (rows pivoted at later steps).
	lPtr []int
	lRow []int
	lVal []float64

	// U is upper triangular in step coordinates, stored the same way:
	// column k holds entries u_ik for steps i < k, plus diag[k] = u_kk.
	uPtr []int
	uRow []int
	uVal []float64
	diag []float64

	work    []float64 // dense scratch in row coordinates, len m
	inTouch []bool    // membership marker for the factor scratch list
	touched []int     // scratch entries to re-zero between columns
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
	f.uPtr = grow(f.uPtr, m+1)
	f.diag = grow(f.diag, m)
	f.work = grow(f.work, m)
	f.inTouch = grow(f.inTouch, m)
}

// factor computes P·B = L·U for the basis whose k-th column is
// cols[basis[k]]. Returns errSingular when no acceptable pivot exists.
func (f *luFactors) factor(cols []spCol, basis []int) error {
	m := f.m
	for r := 0; r < m; r++ {
		f.pos[r] = -1
		f.work[r] = 0
		f.inTouch[r] = false
	}
	f.lRow, f.lVal = f.lRow[:0], f.lVal[:0]
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
		}
		// Left-looking elimination: apply every earlier column's
		// multipliers; the consumed value at each earlier pivot row is a
		// U entry of this column.
		for j := 0; j < k; j++ {
			t := f.work[f.rowOf[j]]
			if t == 0 {
				continue
			}
			f.uRow = append(f.uRow, j)
			f.uVal = append(f.uVal, t)
			rows, vals := f.lRow[f.lPtr[j]:f.lPtr[j+1]], f.lVal[f.lPtr[j]:f.lPtr[j+1]]
			for i, r := range rows {
				if !f.inTouch[r] {
					f.inTouch[r] = true
					touched = append(touched, r)
				}
				f.work[r] -= vals[i] * t
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
			f.lRow = append(f.lRow, r)
			f.lVal = append(f.lVal, f.work[r]*inv)
		}
		f.lPtr[k+1] = len(f.lRow)
		for _, r := range touched {
			f.work[r] = 0
			f.inTouch[r] = false
		}
		touched = touched[:0]
	}
	f.touched = touched
	return nil
}

// ftranLU solves B·z = b. b is dense in row coordinates and is
// consumed as scratch; z is dense in position coordinates.
func (f *luFactors) ftranLU(b, z []float64) {
	// L solve: y_k accumulates in place at b[rowOf[k]].
	for k := 0; k < f.m; k++ {
		t := b[f.rowOf[k]]
		if t == 0 {
			continue
		}
		rows, vals := f.lRow[f.lPtr[k]:f.lPtr[k+1]], f.lVal[f.lPtr[k]:f.lPtr[k+1]]
		for i, r := range rows {
			b[r] -= vals[i] * t
		}
	}
	// U solve, backward, column-oriented: once z_k is known, its
	// contribution u_ik·z_k is pulled out of every earlier y_i.
	for k := f.m - 1; k >= 0; k-- {
		t := b[f.rowOf[k]] / f.diag[k]
		z[k] = t
		if t == 0 {
			continue
		}
		rows, vals := f.uRow[f.uPtr[k]:f.uPtr[k+1]], f.uVal[f.uPtr[k]:f.uPtr[k+1]]
		for i, j := range rows {
			b[f.rowOf[j]] -= vals[i] * t
		}
	}
}

// btranLU solves Bᵀ·y = c. c is dense in position coordinates and is
// consumed as scratch; y is dense in row coordinates.
func (f *luFactors) btranLU(c, y []float64) {
	// Uᵀ·w = c, forward: Uᵀ is lower triangular in step coordinates.
	// w is computed in place in c.
	for k := 0; k < f.m; k++ {
		t := c[k]
		rows, vals := f.uRow[f.uPtr[k]:f.uPtr[k+1]], f.uVal[f.uPtr[k]:f.uPtr[k+1]]
		for i, j := range rows {
			t -= vals[i] * c[j]
		}
		c[k] = t / f.diag[k]
	}
	// Lᵀ·v = w, backward: column k of L touches only rows pivoted at
	// later steps, whose v entries are already final, so the solve runs
	// in place in c as well.
	for k := f.m - 1; k >= 0; k-- {
		t := c[k]
		rows, vals := f.lRow[f.lPtr[k]:f.lPtr[k+1]], f.lVal[f.lPtr[k]:f.lPtr[k+1]]
		for i, r := range rows {
			t -= vals[i] * c[f.pos[r]]
		}
		c[k] = t
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
// creation order). b is dense in row coordinates and is consumed;
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
