package lp

// The simplex kernels as they were before they went hypersparse, kept
// as oracles: a left-looking LU that scans every earlier step, a BTRAN
// that runs every dot product, and pricing column by column. The
// production kernels skip only terms whose multiplier is exactly zero,
// so they must agree with these bit for bit, up to the sign of a zero
// (x − 0·a is x for every nonzero x; only a zero x can change sign).

import "math"

// luRef is luFactors with L and U stored by column only, L rows as
// original rows.
type luRef struct {
	m     int
	rowOf []int
	pos   []int

	lPtr []int
	lRow []int
	lVal []float64

	uPtr []int
	uRow []int
	uVal []float64
	diag []float64

	work    []float64
	inTouch []bool
	touched []int
}

func (f *luRef) reset(m int) {
	f.m = m
	f.rowOf = grow(f.rowOf, m)
	f.pos = grow(f.pos, m)
	f.lPtr = grow(f.lPtr, m+1)
	f.uPtr = grow(f.uPtr, m+1)
	f.diag = grow(f.diag, m)
	f.work = grow(f.work, m)
	f.inTouch = grow(f.inTouch, m)
}

// factor visits every earlier step j < k for every column k.
func (f *luRef) factor(cols []spCol, basis []int) error {
	m := f.m
	for r := 0; r < m; r++ {
		f.pos[r] = -1
		f.work[r] = 0
		f.inTouch[r] = false
	}
	f.lRow, f.lVal = f.lRow[:0], f.lVal[:0]
	f.uRow, f.uVal = f.uRow[:0], f.uVal[:0]
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

// ftranLU solves B·z = b in row coordinates, consuming b.
func (f *luRef) ftranLU(b, z []float64) {
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

// btranLU runs Uᵀ and Lᵀ in dot form, every product included.
func (f *luRef) btranLU(c, y []float64) {
	for k := 0; k < f.m; k++ {
		t := c[k]
		rows, vals := f.uRow[f.uPtr[k]:f.uPtr[k+1]], f.uVal[f.uPtr[k]:f.uPtr[k+1]]
		for i, j := range rows {
			t -= vals[i] * c[j]
		}
		c[k] = t / f.diag[k]
	}
	for k := f.m - 1; k >= 0; k-- {
		t := c[k]
		rows, vals := f.lRow[f.lPtr[k]:f.lPtr[k+1]], f.lVal[f.lPtr[k]:f.lPtr[k+1]]
		for i, r := range rows {
			t -= vals[i] * c[f.pos[r]]
		}
		c[k] = t
	}
	for k := 0; k < f.m; k++ {
		y[f.rowOf[k]] = c[k]
	}
}

// basisRef is basisLU over luRef; its eta file is basisLU's code.
type basisRef struct {
	lu     luRef
	etas   []eta
	etaInd []int
	etaVal []float64
}

func (b *basisRef) refactor(cols []spCol, basis []int) error {
	b.etas, b.etaInd, b.etaVal = b.etas[:0], b.etaInd[:0], b.etaVal[:0]
	return b.lu.factor(cols, basis)
}

func (b *basisRef) push(r int, w []float64) error {
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

func (b *basisRef) ftran(rhs, z []float64) {
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

func (b *basisRef) btran(c, y []float64) {
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

// reducedCost returns d_j = c_j − y·A_j for the current duals, the
// column's terms in ascending row order.
func (r *revised) reducedCost(cost []float64, j int) float64 {
	d := cost[j]
	c := r.cols[j]
	for i, row := range c.ind {
		d -= c.val[i] * r.y[row]
	}
	return d
}

// priceRef is price by reducedCost, one column at a time, on the duals
// price left in r.y: the entering column and the worst reduced cost.
func (r *revised) priceRef(cost []float64, bland bool) (int, float64) {
	best, bestD, worst := -1, -epsReduced, 0.0
	for j := 0; j < r.nTotal; j++ {
		if r.banned[j] || r.basisPos[j] >= 0 {
			continue
		}
		d := r.reducedCost(cost, j)
		if d < worst {
			worst = d
		}
		if d < -epsReduced {
			if bland {
				return j, worst
			}
			if d < bestD {
				best, bestD = j, d
			}
		}
	}
	return best, worst
}
