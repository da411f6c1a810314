// Package dense is the reference oracle for internal/lp: a two-phase
// primal simplex on a dense tableau, with Devex pricing, a Bland's-rule
// fallback for anti-cycling and row equilibration. It honors the status
// contract of lp.Solver — the same standard form, tolerances, iteration
// caps and ratio-test tie-break — with none of its machinery (no
// presolve, no factored basis, no start basis, no metrics), so the
// differential tests, the goldens and the status-contract tests can
// check the production solver against an independent one.
//
// Only test files import it; the production path has one simplex, the
// revised one in internal/lp.
package dense

import (
	"math"

	"coflow/internal/lp"
)

// The tolerances and caps of lp's revised simplex, copied: the two
// solvers share the contract, not the code.
const (
	epsPivot     = 1e-9  // minimum magnitude for a pivot element
	epsReduced   = 1e-9  // tolerance on reduced costs
	looseReduced = 1e-6  // residual reduced cost treated as optimal when no pivot exists
	epsFeas      = 1e-6  // feasibility tolerance on phase-1 objective
	blandAfter   = 2000  // iterations of Dantzig pricing before switching to Bland
	iterFactor   = 200   // iteration cap = iterFactor * (rows + cols)
	iterFloor    = 20000 // minimum iteration cap
)

// Solve runs the two-phase simplex method on the dense tableau and
// returns the solution. It is an lp.Method: start is ignored, the
// tableau always starts from the slack/artificial basis. The returned
// error is non-nil only for structurally invalid input; infeasibility
// and unboundedness are reported via Status.
func Solve(p *lp.Problem, _ []int) (*lp.Solution, error) {
	if p == nil || p.NumVars() == 0 {
		return nil, lp.ErrBadProblem
	}
	return solveDense(p), nil
}

// solveDense is the tableau solve. p must have at least one variable.
func solveDense(p *lp.Problem) *lp.Solution {
	t := newTableau(p)
	sol := &lp.Solution{X: make([]float64, p.NumVars())}

	// Phase 1: minimize the sum of artificials.
	if t.numArt > 0 {
		status, iters := t.run(t.phase1Cost(), blandAfter)
		sol.Iterations += iters
		if status == lp.IterLimit {
			sol.Status = lp.IterLimit
			return sol
		}
		if t.objValue() > epsFeas {
			sol.Status = lp.Infeasible
			return sol
		}
		t.banArtificials()
	}

	// Phase 2: minimize the real objective from the feasible basis.
	status, iters := t.run(t.phase2Cost(p), blandAfter)
	sol.Iterations += iters
	sol.Status = status
	if status != lp.Optimal {
		return sol
	}
	for i, bv := range t.basis {
		if bv < p.NumVars() {
			sol.X[bv] = t.rhs(i)
		}
	}
	sol.Objective = lp.Objective(p, sol.X)
	return sol
}

// tableau holds the dense simplex tableau: m constraint rows over
// numTotal columns plus an RHS column, an objective row, and the
// current basis.
type tableau struct {
	m        int // constraint rows
	numVar   int // structural variables
	numSlack int
	numArt   int
	numTotal int       // numVar + numSlack + numArt
	a        []float64 // m rows × (numTotal+1) columns, row-major
	objRow   []float64 // numTotal+1 entries; last is -objective value
	basis    []int
	banned   []bool // columns excluded from entering (artificials in phase 2)

	// Devex pricing reference weights (reset per phase). Entering
	// columns maximize rc²/devex[j], which approximates steepest-edge
	// pricing and markedly reduces iteration counts on the degenerate
	// interval LPs compared with plain Dantzig pricing.
	devex []float64
}

func newTableau(p *lp.Problem) *tableau {
	m := p.NumConstraints()
	// First pass: count slacks and artificials after normalizing each
	// row to a non-negative RHS.
	numSlack, numArt := 0, 0
	senses := make([]lp.Sense, m)
	for i := 0; i < m; i++ {
		_, s, rhs := p.Row(i)
		if rhs < 0 {
			// Multiplying by -1 flips the sense.
			switch s {
			case lp.LE:
				s = lp.GE
			case lp.GE:
				s = lp.LE
			}
		}
		senses[i] = s
		switch s {
		case lp.LE:
			numSlack++
		case lp.GE:
			numSlack++
			numArt++
		case lp.EQ:
			numArt++
		}
	}
	t := &tableau{
		m:        m,
		numVar:   p.NumVars(),
		numSlack: numSlack,
		numArt:   numArt,
		numTotal: p.NumVars() + numSlack + numArt,
	}
	width := t.numTotal + 1
	t.a = make([]float64, m*width)
	t.objRow = make([]float64, width)
	t.basis = make([]int, m)
	t.banned = make([]bool, t.numTotal)

	slackIdx := p.NumVars()
	artIdx := p.NumVars() + numSlack
	for i := 0; i < m; i++ {
		entries, _, rhs := p.Row(i)
		rowData := t.a[i*width : (i+1)*width]
		sign := 1.0
		if rhs < 0 {
			sign, rhs = -1.0, -rhs
		}
		for _, e := range entries {
			rowData[e.Var] += sign * e.Coef
		}
		rowData[t.numTotal] = rhs
		switch senses[i] {
		case lp.LE:
			rowData[slackIdx] = 1
			t.basis[i] = slackIdx
			slackIdx++
		case lp.GE:
			rowData[slackIdx] = -1
			slackIdx++
			rowData[artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
		case lp.EQ:
			rowData[artIdx] = 1
			t.basis[i] = artIdx
			artIdx++
		}
	}
	t.equilibrate()
	return t
}

// equilibrate divides each row by the largest structural coefficient
// magnitude so pivots stay near unit scale. Only the structural
// columns and the RHS are scaled (slack and artificial columns keep
// their ±1, i.e. slacks are measured in scaled units), so the
// feasible set is preserved exactly. Conditioning on the interval LP,
// whose raw coefficients span ~6 orders of magnitude (flow sizes vs
// geometric horizons), improves markedly.
func (t *tableau) equilibrate() {
	width := t.width()
	for i := 0; i < t.m; i++ {
		rowData := t.a[i*width : (i+1)*width]
		var scale float64
		for v := 0; v < t.numVar; v++ {
			if mag := math.Abs(rowData[v]); mag > scale {
				scale = mag
			}
		}
		if scale > 0 && scale != 1 {
			inv := 1 / scale
			for v := 0; v < t.numVar; v++ {
				rowData[v] *= inv
			}
			rowData[t.numTotal] *= inv
		}
	}
}

func (t *tableau) width() int        { return t.numTotal + 1 }
func (t *tableau) rhs(i int) float64 { return t.a[i*t.width()+t.numTotal] }

// objValue returns the current objective value (the tableau stores its
// negation in the RHS cell of the objective row).
func (t *tableau) objValue() float64 { return -t.objRow[t.numTotal] }

func (t *tableau) phase1Cost() []float64 {
	c := make([]float64, t.numTotal)
	for v := t.numVar + t.numSlack; v < t.numTotal; v++ {
		c[v] = 1
	}
	return c
}

func (t *tableau) phase2Cost(p *lp.Problem) []float64 {
	c := make([]float64, t.numTotal)
	for v := 0; v < t.numVar; v++ {
		c[v] = p.Cost(v)
	}
	return c
}

// banArtificials drives basic artificials out of the basis where
// possible and forbids all artificial columns from re-entering.
func (t *tableau) banArtificials() {
	width := t.width()
	for i := 0; i < t.m; i++ {
		bv := t.basis[i]
		if bv < t.numVar+t.numSlack {
			continue
		}
		// Basic artificial (at value ~0 after a feasible phase 1):
		// pivot on any eligible non-artificial column in this row. If
		// the whole row is zero the constraint is redundant; the
		// artificial stays basic at zero, which is harmless once its
		// column is banned.
		rowData := t.a[i*width : (i+1)*width]
		for j := 0; j < t.numVar+t.numSlack; j++ {
			if math.Abs(rowData[j]) > epsPivot {
				t.pivot(i, j)
				break
			}
		}
	}
	for v := t.numVar + t.numSlack; v < t.numTotal; v++ {
		t.banned[v] = true
	}
}

// resetDevex restores all pricing weights to the reference frame.
func (t *tableau) resetDevex() {
	if t.devex == nil {
		t.devex = make([]float64, t.numTotal)
	}
	for j := range t.devex {
		t.devex[j] = 1
	}
}

// installCost loads cost vector c into the objective row expressed in
// the current basis (reduced costs).
func (t *tableau) installCost(c []float64) {
	width := t.width()
	for j := 0; j < t.numTotal; j++ {
		t.objRow[j] = c[j]
	}
	t.objRow[t.numTotal] = 0
	for i := 0; i < t.m; i++ {
		cb := c[t.basis[i]]
		if cb == 0 {
			continue
		}
		rowData := t.a[i*width : (i+1)*width]
		for j := 0; j <= t.numTotal; j++ {
			t.objRow[j] -= cb * rowData[j]
		}
	}
}

// run installs cost c and iterates pivots to optimality.
func (t *tableau) run(c []float64, blandAfter int) (lp.Status, int) {
	t.installCost(c)
	t.resetDevex()
	maxIter := iterFactor * (t.m + t.numTotal)
	if maxIter < iterFloor {
		maxIter = iterFloor
	}
	iters := 0
	for ; iters < maxIter; iters++ {
		bland := iters >= blandAfter
		enter := t.chooseEntering(bland)
		if enter < 0 {
			return lp.Optimal, iters
		}
		leave := t.ratioTest(enter)
		if leave < 0 {
			// The preferred column has no positive pivot entry. On a
			// genuinely unbounded LP no candidate has one; after many
			// pivots this is usually roundoff instead, so scan every
			// improving column before giving up.
			enter, leave = t.anyEnteringWithLeave()
			if leave < 0 {
				if t.worstReducedCost() >= -looseReduced {
					return lp.Optimal, iters // negligible residual improvement
				}
				return lp.Unbounded, iters
			}
		}
		t.pivot(leave, enter)
	}
	return lp.IterLimit, iters
}

// anyEnteringWithLeave scans all improving columns for one admitting a
// ratio test, most negative reduced cost first. O(rows·cols) — only
// used on the rare fallback path.
func (t *tableau) anyEnteringWithLeave() (enter, leave int) {
	type cand struct {
		j  int
		rc float64
	}
	var cands []cand
	for j := 0; j < t.numTotal; j++ {
		if !t.banned[j] && t.objRow[j] < -epsReduced {
			cands = append(cands, cand{j, t.objRow[j]})
		}
	}
	for len(cands) > 0 {
		best := 0
		for i := range cands {
			if cands[i].rc < cands[best].rc {
				best = i
			}
		}
		j := cands[best].j
		if l := t.ratioTest(j); l >= 0 {
			return j, l
		}
		cands[best] = cands[len(cands)-1]
		cands = cands[:len(cands)-1]
	}
	return -1, -1
}

// worstReducedCost returns the most negative reduced cost among
// unbanned columns (0 if none are negative).
func (t *tableau) worstReducedCost() float64 {
	worst := 0.0
	for j := 0; j < t.numTotal; j++ {
		if !t.banned[j] && t.objRow[j] < worst {
			worst = t.objRow[j]
		}
	}
	return worst
}

// chooseEntering returns the entering column, or -1 at optimality.
// Devex pricing (max rc²/weight) by default; Bland's rule (first
// negative) when anti-cycling is needed.
func (t *tableau) chooseEntering(bland bool) int {
	best := -1
	bestScore := 0.0
	for j := 0; j < t.numTotal; j++ {
		if t.banned[j] {
			continue
		}
		rc := t.objRow[j]
		if rc < -epsReduced {
			if bland {
				return j
			}
			score := rc * rc / t.devex[j]
			if score > bestScore {
				best, bestScore = j, score
			}
		}
	}
	return best
}

// ratioTest returns the leaving row for entering column j, or -1 if
// the column is unbounded. Ties break on the smallest basis variable
// index (lexicographic anti-cycling).
func (t *tableau) ratioTest(j int) int {
	width := t.width()
	leave := -1
	var bestRatio float64
	for i := 0; i < t.m; i++ {
		aij := t.a[i*width+j]
		if aij <= epsPivot {
			continue
		}
		ratio := t.rhs(i) / aij
		if leave < 0 || ratio < bestRatio-epsPivot ||
			(math.Abs(ratio-bestRatio) <= epsPivot && t.basis[i] < t.basis[leave]) {
			leave, bestRatio = i, ratio
		}
	}
	return leave
}

// pivot makes column j basic in row i.
func (t *tableau) pivot(i, j int) {
	width := t.width()
	rowData := t.a[i*width : (i+1)*width]
	pv := rowData[j]
	inv := 1.0 / pv
	for k := range rowData {
		rowData[k] *= inv
	}
	rowData[j] = 1 // exact

	// Clear the pivot column from every other row.
	for r := 0; r < t.m; r++ {
		if r == i {
			continue
		}
		other := t.a[r*width : (r+1)*width]
		f := other[j]
		if f == 0 {
			continue
		}
		for k := range other {
			other[k] -= f * rowData[k]
		}
		other[j] = 0 // exact
	}

	f := t.objRow[j]
	if f != 0 {
		for k := range t.objRow {
			t.objRow[k] -= f * rowData[k]
		}
		t.objRow[j] = 0
	}

	// Devex weight update: with the pivot row normalized (α_rq = 1),
	// every column inherits max(γ_j, α_rj²·γ_q); the leaving variable
	// re-enters the frame with weight max(γ_q, 1). Weights are reset
	// when they outgrow the frame.
	if t.devex != nil {
		gq := t.devex[j]
		reset := false
		for k := 0; k < t.numTotal; k++ {
			if w := rowData[k] * rowData[k] * gq; w > t.devex[k] {
				t.devex[k] = w
				if w > 1e12 {
					reset = true
				}
			}
		}
		if lv := t.basis[i]; lv >= 0 && lv < t.numTotal {
			if gq > t.devex[lv] {
				t.devex[lv] = gq
			}
		}
		if reset {
			t.resetDevex()
		}
	}
	t.basis[i] = j
}
