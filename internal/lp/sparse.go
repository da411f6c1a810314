package lp

// Revised simplex on a sparse standard form. Where the dense oracle
// (internal/lp/dense) updates an m×(n+1) tableau on every pivot, the
// revised method keeps only the original matrix (by column for FTRAN
// and the ratio test, by row for pricing), the current basic solution,
// and a factored basis (lu.go); each iteration does one BTRAN (duals),
// one pricing pass over the rows whose dual is nonzero, one FTRAN
// (entering column), and an O(m) basic-solution update. On the interval-indexed
// coflow LPs — almost all unit entries, most duals zero — this is the
// difference between O(m·n) and well under O(nnz) per iteration.
//
// The kernels are hypersparse without changing the arithmetic: every
// accumulator receives the products a dense-loop kernel would give it,
// in the same order, less those whose multiplier is exactly zero. The
// pivot path is that of the column-by-column and full-scan kernels kept
// as oracles in reference_test.go.
//
// The solver mirrors the dense oracle's external contract so the two
// stay interchangeable under the differential harness:
//
//   - identical standard-form construction (rhs sign normalization,
//     slack/artificial layout, row equilibration);
//   - the same tolerance constants (epsPivot, epsReduced, epsFeas,
//     looseReduced) and iteration caps;
//   - Dantzig pricing switching to Bland's rule after blandAfter
//     iterations (the dense solver's anti-cycling contract; it prices
//     with devex before the switch, which only changes the pivot
//     path, never the verdict);
//   - the same ratio-test tie-break (smallest basis variable index)
//     and the same scan-all-columns fallback before declaring
//     Unbounded.

import "math"

// revised is the working state of the revised simplex. It lives inside
// a Solver: load resizes every slice — the column and row files, the
// factors and their transposes, the eta file, the dense vectors — for
// the next problem and keeps the memory, so a re-solve of a problem no
// larger than the last allocates nothing.
type revised struct {
	obj []float64 // the problem's objective (not owned)
	m   int       // constraint rows

	nVar   int
	nSlack int
	nArt   int
	nTotal int

	// Standard-form columns, CSC. cols[j] is a view into the two arenas;
	// slacks/artificials are unit columns at their tail.
	cols   []spCol
	colInd []int
	colVal []float64
	// The same matrix by row, for pricing: row i is rowCol/rowVal
	// [rowPtr[i]:rowPtr[i+1]], slack and artificial entries included.
	rowPtr []int
	rowCol []int
	rowVal []float64
	bVec   []float64 // normalized (non-negative, equilibrated) rhs

	basis    []int // basis[i]: variable basic at position i
	basisPos []int // basisPos[v]: position of v, -1 when nonbasic
	cold     []int // the slack/artificial basis, kept while a start is seated
	warm     bool  // the last solve ran from a seated start basis
	banned   []bool
	xB       []float64 // basic variable values, position coordinates

	blu basisLU

	// Dense scratch vectors, reused across iterations and solves.
	rowScratch []float64 // row coordinates (FTRAN input, duals output)
	posScratch []float64 // position coordinates (BTRAN input)
	y          []float64 // duals of the current basis, row coordinates
	w          []float64 // FTRAN of the entering column, position coordinates
	cost       []float64 // the running phase's cost vector
	d          []float64 // reduced costs of the last pricing pass, every column
	x          []float64 // structural values at the optimum

	// Scratch of load and anyEnteringWithLeave.
	senses  []Sense
	acc     []float64
	touched []int
	colCnt  []int
	cands   []cand

	worstReduced float64 // most negative reduced cost seen by the last pricing pass
}

// cand is an improving column and its reduced cost.
type cand struct {
	j int
	d float64
}

// load builds p's standard form and the slack/artificial basis.
func (r *revised) load(p *Problem) {
	m := len(p.rows)
	// Pass 1: normalized senses, slack/artificial counts (mirrors
	// newTableau exactly), and an upper bound on each column's length.
	numSlack, numArt, nnz := 0, 0, 0
	r.senses = grow(r.senses, m)
	r.colCnt = grow(r.colCnt, p.numVars)
	for i, row := range p.rows {
		s := row.sense
		if row.rhs < 0 {
			switch s {
			case LE:
				s = GE
			case GE:
				s = LE
			}
		}
		r.senses[i] = s
		switch s {
		case LE:
			numSlack++
		case GE:
			numSlack++
			numArt++
		case EQ:
			numArt++
		}
		for _, e := range row.entries {
			r.colCnt[e.Var]++
		}
		nnz += len(row.entries)
	}
	r.obj, r.m = p.obj, m
	r.nVar, r.nSlack, r.nArt = p.numVars, numSlack, numArt
	r.nTotal = p.numVars + numSlack + numArt
	r.cols = grow(r.cols, r.nTotal)
	r.colInd = grow(r.colInd, nnz+numSlack+numArt)
	r.colVal = grow(r.colVal, nnz+numSlack+numArt)
	r.rowPtr = grow(r.rowPtr, m+1)
	r.rowCol = grow(r.rowCol, nnz+numSlack+numArt)
	r.rowVal = grow(r.rowVal, nnz+numSlack+numArt)
	r.bVec = grow(r.bVec, m)
	r.basis = grow(r.basis, m)
	r.basisPos = grow(r.basisPos, r.nTotal)
	for v := range r.basisPos {
		r.basisPos[v] = -1
	}
	r.banned = grow(r.banned, r.nTotal)
	r.xB = grow(r.xB, m)
	r.rowScratch = grow(r.rowScratch, m)
	r.posScratch = grow(r.posScratch, m)
	r.y = grow(r.y, m)
	r.w = grow(r.w, m)
	r.cost = grow(r.cost, r.nTotal)
	r.d = grow(r.d, r.nTotal)
	r.x = grow(r.x, p.numVars)
	r.blu.lu.reset(m)

	// Each structural column fills its own stretch of the arenas row by
	// row; unit column u sits at arena index nnz+u−nVar. The row file
	// fills front to back.
	off := 0
	for v, n := range r.colCnt {
		r.cols[v] = spCol{ind: r.colInd[off : off : off+n], val: r.colVal[off : off : off+n]}
		off += n
	}
	nr := 0
	emit := func(j int, val float64) {
		r.rowCol[nr], r.rowVal[nr] = j, val
		nr++
	}
	unit := func(pos, u int, val float64) {
		at := nnz + u - r.nVar
		r.colInd[at], r.colVal[at] = pos, val
		r.cols[u] = spCol{ind: r.colInd[at : at+1], val: r.colVal[at : at+1]}
		emit(u, val)
	}

	// Pass 2: accumulate each row densely (duplicate entries add, as
	// in AddConstraint's contract), equilibrate, and emit the row's CSC
	// entries and its row file.
	r.acc = grow(r.acc, p.numVars)
	acc, touched := r.acc, r.touched
	slackIdx := p.numVars
	artIdx := p.numVars + numSlack
	for i, row := range p.rows {
		sign, rhs := 1.0, row.rhs
		if rhs < 0 {
			sign, rhs = -1.0, -rhs
		}
		touched = touched[:0]
		for _, e := range row.entries {
			if acc[e.Var] == 0 {
				touched = append(touched, e.Var)
			}
			acc[e.Var] += sign * e.Coef
		}
		// Row equilibration: structural coefficients and the rhs are
		// scaled by 1/max|structural|, identical to tableau.equilibrate
		// (slack and artificial columns keep their ±1).
		var scale float64
		for _, v := range touched {
			if mag := math.Abs(acc[v]); mag > scale {
				scale = mag
			}
		}
		inv := 1.0
		if scale > 0 && scale != 1 {
			inv = 1 / scale
		}
		for _, v := range touched {
			if c := acc[v]; c != 0 {
				r.cols[v].ind = append(r.cols[v].ind, i)
				r.cols[v].val = append(r.cols[v].val, c*inv)
				emit(v, c*inv)
			}
			acc[v] = 0
		}
		r.bVec[i] = rhs * inv
		switch r.senses[i] {
		case LE:
			unit(i, slackIdx, 1)
			r.setBasic(i, slackIdx)
			slackIdx++
		case GE:
			unit(i, slackIdx, -1)
			slackIdx++
			unit(i, artIdx, 1)
			r.setBasic(i, artIdx)
			artIdx++
		case EQ:
			unit(i, artIdx, 1)
			r.setBasic(i, artIdx)
			artIdx++
		}
		r.rowPtr[i+1] = nr
	}
	r.touched = touched
}

func (r *revised) setBasic(pos, v int) {
	r.basis[pos] = v
	r.basisPos[v] = pos
}

// refactor rebuilds the basis factorization and recomputes xB from
// scratch, clearing accumulated eta roundoff.
func (r *revised) refactor() error {
	span := pkgObs.FactorizeSeconds.Start()
	defer span.End()
	if err := r.blu.refactor(r.cols, r.basis); err != nil {
		return err
	}
	copy(r.rowScratch, r.bVec)
	r.blu.ftran(r.rowScratch, r.xB)
	return nil
}

// ftranCol computes w = B⁻¹·A_j.
func (r *revised) ftranCol(j int, w []float64) {
	for i := range r.rowScratch {
		r.rowScratch[i] = 0
	}
	c := r.cols[j]
	for i, row := range c.ind {
		r.rowScratch[row] += c.val[i]
	}
	r.blu.ftran(r.rowScratch, w)
}

// duals computes y = B⁻ᵀ·c_B into r.y.
func (r *revised) duals(cost []float64) {
	for i := 0; i < r.m; i++ {
		r.posScratch[i] = cost[r.basis[i]]
	}
	r.blu.btran(r.posScratch, r.y)
}

// price refreshes the duals and the reduced costs d = c − Aᵀy, and
// returns the entering column: the most negative reduced cost (Dantzig)
// or the first negative one (Bland), or -1 at optimality. worstReduced
// is left holding the most negative reduced cost seen, for the
// unboundedness fallback.
//
// The products run over the row file, only for the rows whose dual is
// nonzero, in ascending row order: each d_j receives the terms of a
// column-by-column c_j − Σ_i a_ij·y_i in that sum's order, less the
// ones whose y_i is zero, so d_j is the same number up to the sign of a
// zero. d is computed for basic and banned columns too; the scan
// ignores them.
func (r *revised) price(cost []float64, bland bool) int {
	span := pkgObs.PriceSeconds.Start()
	defer span.End()
	r.duals(cost)
	d := r.d
	copy(d, cost)
	for i, yi := range r.y {
		if yi == 0 {
			continue
		}
		cols, vals := r.rowCol[r.rowPtr[i]:r.rowPtr[i+1]], r.rowVal[r.rowPtr[i]:r.rowPtr[i+1]]
		for t, j := range cols {
			d[j] -= vals[t] * yi
		}
	}
	best := -1
	bestD := -epsReduced
	r.worstReduced = 0
	for j, dj := range d {
		if r.banned[j] || r.basisPos[j] >= 0 {
			continue
		}
		if dj < r.worstReduced {
			r.worstReduced = dj
		}
		if dj < -epsReduced {
			if bland {
				return j
			}
			if dj < bestD {
				best, bestD = j, dj
			}
		}
	}
	return best
}

// ratioTest returns the leaving position for FTRAN column w, or -1 if
// no entry admits one. Ties break on the smallest basis variable
// index, mirroring the dense tableau's lexicographic anti-cycling.
func (r *revised) ratioTest(w []float64) int {
	leave := -1
	var bestRatio float64
	for i := 0; i < r.m; i++ {
		wi := w[i]
		if wi <= epsPivot {
			continue
		}
		ratio := r.xB[i] / wi
		if leave < 0 || ratio < bestRatio-epsPivot ||
			(math.Abs(ratio-bestRatio) <= epsPivot && r.basis[i] < r.basis[leave]) {
			leave, bestRatio = i, ratio
		}
	}
	return leave
}

// anyEnteringWithLeave scans every improving column, most negative
// reduced cost first, for one admitting a ratio test (the dense
// solver's pre-Unbounded fallback). The winning column's FTRAN is left
// in r.w. Requires r.d to be current (price ran this iteration).
func (r *revised) anyEnteringWithLeave() (enter, leave int) {
	cands := r.cands[:0]
	for j, dj := range r.d {
		if r.banned[j] || r.basisPos[j] >= 0 {
			continue
		}
		if dj < -epsReduced {
			cands = append(cands, cand{j, dj})
		}
	}
	r.cands = cands // keeps what append grew; the loop below only shrinks its view
	for len(cands) > 0 {
		best := 0
		for i := range cands {
			if cands[i].d < cands[best].d {
				best = i
			}
		}
		j := cands[best].j
		r.ftranCol(j, r.w)
		if l := r.ratioTest(r.w); l >= 0 {
			return j, l
		}
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return -1, -1
}

// pivot applies the basis change (enter at position leave, FTRAN in
// w): updates xB, records the eta, and refactors when the eta file is
// full. The returned error signals numerical breakdown.
func (r *revised) pivot(leave, enter int, w []float64) error {
	span := pkgObs.UpdateSeconds.Start()
	defer span.End()
	theta := r.xB[leave] / w[leave]
	for i := range r.xB {
		if i != leave && w[i] != 0 {
			r.xB[i] -= w[i] * theta
		}
	}
	r.xB[leave] = theta
	if err := r.blu.push(leave, w); err != nil {
		return err
	}
	r.basisPos[r.basis[leave]] = -1
	r.setBasic(leave, enter)
	if r.blu.needsRefactor() {
		return r.refactor()
	}
	return nil
}

// run iterates pivots under cost to optimality; the Status follows the
// dense solver's contract exactly. A non-nil error means numerical
// breakdown (singular refactorization); Solver.solve decides whether a
// cold restart is worth a try.
func (r *revised) run(cost []float64, blandAfter int) (Status, int, error) {
	maxIter := iterFactor * (r.m + r.nTotal)
	if maxIter < iterFloor {
		maxIter = iterFloor
	}
	iters := 0
	for ; iters < maxIter; iters++ {
		enter := r.price(cost, iters >= blandAfter)
		if enter < 0 {
			return Optimal, iters, nil
		}
		r.ftranCol(enter, r.w)
		leave := r.ratioTest(r.w)
		if leave < 0 {
			enter, leave = r.anyEnteringWithLeave()
			if leave < 0 {
				if r.worstReduced >= -looseReduced {
					return Optimal, iters, nil
				}
				return Unbounded, iters, nil
			}
		}
		if err := r.pivot(leave, enter, r.w); err != nil {
			return IterLimit, iters, err
		}
	}
	return IterLimit, iters, nil
}

// phase1Cost is 1 on every artificial, phase2Cost the objective on the
// structurals; both fill the one cost vector.
func (r *revised) phase1Cost() []float64 {
	clear(r.cost)
	for v := r.nVar + r.nSlack; v < r.nTotal; v++ {
		r.cost[v] = 1
	}
	return r.cost
}

func (r *revised) phase2Cost() []float64 {
	clear(r.cost)
	copy(r.cost, r.obj)
	return r.cost
}

// phase1Obj is the artificial-variable sum at the current basis.
func (r *revised) phase1Obj() float64 {
	sum := 0.0
	for i, bv := range r.basis {
		if bv >= r.nVar+r.nSlack {
			sum += r.xB[i]
		}
	}
	return sum
}

// banArtificials drives basic artificials out where a non-artificial
// pivot exists in their row (they sit at ~0 after a feasible phase 1,
// so the step is degenerate) and bans all artificial columns from
// re-entering — the same policy as tableau.banArtificials.
func (r *revised) banArtificials() error {
	for i := 0; i < r.m; i++ {
		if r.basis[i] < r.nVar+r.nSlack {
			continue
		}
		// ρ = B⁻ᵀ·e_i is row i of B⁻¹; α_j = ρ·A_j is the tableau entry
		// the dense solver would inspect.
		for k := range r.posScratch {
			r.posScratch[k] = 0
		}
		r.posScratch[i] = 1
		r.blu.btran(r.posScratch, r.y)
		for j := 0; j < r.nVar+r.nSlack; j++ {
			if r.basisPos[j] >= 0 {
				continue
			}
			alpha := 0.0
			c := r.cols[j]
			for t, row := range c.ind {
				alpha += c.val[t] * r.y[row]
			}
			if math.Abs(alpha) <= epsPivot {
				continue
			}
			r.ftranCol(j, r.w)
			if math.Abs(r.w[i]) <= epsPivot {
				continue // eta-file roundoff disagrees; try another column
			}
			if err := r.pivot(i, j, r.w); err != nil {
				return err
			}
			break
		}
		// A row with no eligible pivot is redundant; its artificial
		// stays basic at zero, harmless once the column is banned.
	}
	for v := r.nVar + r.nSlack; v < r.nTotal; v++ {
		r.banned[v] = true
	}
	return nil
}

// seat installs a start basis on the slack/artificial one: each named
// structural column takes the place of a basic artificial in a row
// where its coefficient passes epsPivot. A name out of range, already
// basic, or with no such row — presolve fixed the column, or the rows
// are taken — is skipped. It returns the number seated; the caller
// refactors and judges the result.
func (r *revised) seat(start []int) int {
	r.cold = append(r.cold[:0], r.basis...)
	seated := 0
	for _, j := range start {
		if j < 0 || j >= r.nVar || r.basisPos[j] >= 0 {
			continue
		}
		c := r.cols[j]
		for t, row := range c.ind {
			if art := r.basis[row]; art >= r.nVar+r.nSlack && math.Abs(c.val[t]) > epsPivot {
				r.basisPos[art] = -1
				r.setBasic(row, j)
				seated++
				break
			}
		}
	}
	return seated
}

// startFailed reports whether the seated basis must go: it would not
// factor, or its basic solution is not feasible.
func (r *revised) startFailed(err error) bool {
	if err != nil {
		return true
	}
	for _, x := range r.xB {
		if x < -epsFeas {
			return true
		}
	}
	return false
}

// solve runs two-phase revised simplex on p, from the start basis when
// one is given and holds (see seat), else from the slack/artificial
// basis. At Optimal the structural values are left in r.x. A non-nil
// error reports numerical breakdown; the caller decides on a restart.
func (r *revised) solve(p *Problem, start []int) (Status, int, error) {
	r.load(p)
	seated := 0
	if len(start) > 0 {
		seated = r.seat(start)
	}
	err := r.refactor()
	if seated > 0 && r.startFailed(err) {
		// A start is a hint, never trusted: back to the cold basis.
		pkgObs.StartDiscarded.Inc()
		for i, v := range r.cold {
			if r.basis[i] != v {
				r.basisPos[r.basis[i]] = -1
				r.setBasic(i, v)
			}
		}
		seated = 0
		err = r.refactor()
	}
	r.warm = seated > 0
	if err != nil {
		return IterLimit, 0, err
	}
	pkgObs.StartInstalled.Add(int64(seated))

	total := 0
	if r.nArt > 0 {
		p1Span := pkgObs.Phase1Seconds.Start()
		status, iters, err := r.run(r.phase1Cost(), blandAfter)
		p1Span.End()
		total += iters
		pkgObs.Pivots.Add(int64(iters))
		if err != nil || status == IterLimit {
			return IterLimit, total, err
		}
		if r.phase1Obj() > epsFeas {
			return Infeasible, total, nil
		}
		if err := r.banArtificials(); err != nil {
			return IterLimit, total, err
		}
	}

	p2Span := pkgObs.Phase2Seconds.Start()
	status, iters, err := r.run(r.phase2Cost(), blandAfter)
	p2Span.End()
	total += iters
	pkgObs.Pivots.Add(int64(iters))
	if err != nil || status != Optimal {
		return status, total, err
	}
	for i, bv := range r.basis {
		if bv < r.nVar {
			r.x[bv] = r.xB[i]
		}
	}
	return Optimal, total, nil
}
