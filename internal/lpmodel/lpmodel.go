// Package lpmodel builds and solves the paper's linear programming
// relaxations of the coflow scheduling problem (O):
//
//   - the interval-indexed (LP) of §2.1, polynomial-sized, used both
//     as a lower bound (Lemma 1) and to derive the coflow ordering
//     (15) via the approximated completion times C̄_k (Eq. 14); and
//   - the time-indexed (LP-EXP), pseudo-polynomial, used as a tighter
//     lower bound on small instances (§4.2).
//
// The two are one program on two grids: buildIntervalLP and
// solveGridLP build, solve, verify and read C̄ off either, so whatever
// the builder learns — a pruning, an export — both relaxations get.
//
// It also computes the maximum total input/output loads V_k (Eq. 16)
// with respect to an ordering, the quantity driving the grouping step
// of Algorithm 2 and the approximation guarantees (Lemmas 2 and 3).
//
// SolveIntervalLP and SolveTimeIndexedLP solve with the sparse
// pipeline (lp.MethodSparse), the one LP solver on the production
// path, started from the H_ρ list schedule (greedyStart). The ...With
// forms exist so tests and the benchmark can name the dense reference
// tableau explicitly.
package lpmodel

import (
	"fmt"
	"io"
	"math"
	"sort"

	"coflow/internal/coflowmodel"
	"coflow/internal/lp"
)

// Intervals returns the paper's geometric time points for horizon T:
// τ_0 = 0 and τ_l = 2^(l−1) for l = 1..L, where L is the smallest
// integer with 2^(L−1) ≥ T. The l-th interval is (τ_{l−1}, τ_l].
func Intervals(T int64) []int64 {
	if T < 1 {
		T = 1
	}
	tau := []int64{0, 1}
	for tau[len(tau)-1] < T {
		tau = append(tau, tau[len(tau)-1]*2)
	}
	return tau
}

// IntervalIndex returns the smallest l ≥ 1 with v ≤ τ_l, i.e. the
// index of the interval (τ_{l−1}, τ_l] containing v ≥ 1. A v beyond
// the horizon covered by tau is a caller-input error, not an internal
// invariant, so it is returned rather than panicked.
func IntervalIndex(tau []int64, v int64) (int, error) {
	if v < 1 {
		return 1, nil
	}
	idx := sort.Search(len(tau), func(l int) bool { return tau[l] >= v })
	if idx >= len(tau) {
		return 0, fmt.Errorf("lpmodel: value %d beyond horizon τ_L=%d", v, tau[len(tau)-1])
	}
	if idx == 0 {
		idx = 1
	}
	return idx, nil
}

// mustIntervalIndex is IntervalIndex for call sites that construct
// tau from the same instance v is derived from, where an out-of-range
// v IS an internal invariant violation.
func mustIntervalIndex(tau []int64, v int64) int {
	idx, err := IntervalIndex(tau, v)
	if err != nil {
		panic(err)
	}
	return idx
}

// IntervalSolution is the outcome of solving the interval-indexed LP.
type IntervalSolution struct {
	// Tau are the interval endpoints used (τ_0..τ_L).
	Tau []int64
	// CBar[k] is the approximated completion time of ins.Coflows[k]
	// (Eq. 14): Σ_l τ_{l−1}·x̄_l^(k).
	CBar []float64
	// X[k][l] is the optimal x̄_l^(k) (l indexes 1..L; X[k][0] unused).
	X [][]float64
	// LowerBound is the LP objective value, a lower bound on the
	// optimal total weighted completion time (Lemma 1).
	LowerBound float64
	// Order lists coflow indices sorted by nondecreasing C̄ (the
	// paper's ordering (15)), ties broken by coflow ID.
	Order []int
	// Iterations is the total simplex iteration count.
	Iterations int
	// Vars and Rows describe the solved LP's size.
	Vars, Rows int
}

// unitPoints is the grid of (LP-EXP): τ_l = l for l = 0..max(T, 1), so
// interval l is slot l.
func unitPoints(T int64) []int64 {
	tau := make([]int64, max(T, 1)+1)
	for t := range tau {
		tau[t] = int64(t)
	}
	return tau
}

// intervalModel carries the structural data of one built relaxation.
// x_l^(k) exists for l = lMin[k]..L and is variable first[k]+l−lMin[k];
// its cost is w_k·τ_{l−1+charge}.
type intervalModel struct {
	prob        *lp.Problem
	tau         []int64
	lMin, first []int
	charge      int
}

func (m *intervalModel) x(k, l int) int { return m.first[k] + l - m.lMin[k] }

// greedyStart is the H_ρ list schedule read as a vertex of the
// relaxation, for the simplex to start from: coflow k of the H_ρ order
// finishes in the interval that contains its prefix load V_k (Eq. 16),
// or in its first interval lMin[k] if that is later, and every load row
// has its slack basic. The point is feasible in closed form: the
// coflows placed in intervals 1..l are among those with V_k ≤ τ_l, a
// prefix of the order (V is nondecreasing), so their load on any port
// is at most the prefix's V ≤ τ_l, which is row (11)/(12) for l.
func (m *intervalModel) greedyStart(ins *coflowmodel.Instance) []int {
	order := LoadWeightOrder(ins)
	start := make([]int, len(order))
	for pos, v := range MaxTotalLoads(ins, order) {
		k := order[pos]
		start[pos] = m.x(k, max(mustIntervalIndex(m.tau, v), m.lMin[k]))
	}
	return start
}

// buildIntervalLP constructs, without solving it, the relaxation of ins
// on the grid τ_0 = 0 < τ_1 < … < τ_L = points(T). Finishing coflow k
// in (τ_{l−1}, τ_l] costs w_k·τ_{l−1+charge}. Intervals with charge 0
// is (LP): the left endpoint keeps its optimum below (O)'s (Lemma 1).
// unitPoints with charge 1 is (LP-EXP): a coflow finishing in slot l
// completes at τ_l = l exactly.
func buildIntervalLP(ins *coflowmodel.Instance, points func(T int64) []int64, charge int) (*intervalModel, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	n := len(ins.Coflows)
	if n == 0 {
		return nil, fmt.Errorf("lpmodel: empty instance")
	}
	m := ins.Ports
	tau := points(ins.Horizon())
	L := len(tau) - 1

	// Per-coflow port loads and first feasible interval (13):
	// x_l^(k) = 0 unless τ_l ≥ r_k + every port load of coflow k,
	// i.e. τ_l ≥ r_k + ρ_k.
	rowLoad := make([][]int64, n)
	colLoad := make([][]int64, n)
	mod := &intervalModel{tau: tau, lMin: make([]int, n), first: make([]int, n), charge: charge}
	numVars := 0
	for k := range ins.Coflows {
		c := &ins.Coflows[k]
		rowLoad[k] = c.RowLoads(m)
		colLoad[k] = c.ColLoads(m)
		// An empty coflow still completes in interval 1. The grid covers
		// release+load of every coflow, so an error here is impossible
		// for a validated instance.
		mod.lMin[k] = mustIntervalIndex(tau, max(c.Release+c.Load(m), 1))
		mod.first[k] = numVars
		numVars += L - mod.lMin[k] + 1
	}

	// Objective and convexity rows: Σ_l x_l^(k) = 1. AddConstraint
	// copies its entries, so every row of the LP is assembled in the one
	// scratch slice.
	prob := lp.NewProblem(numVars)
	mod.prob = prob
	var entries []lp.Entry
	for k := 0; k < n; k++ {
		w := ins.Coflows[k].Weight
		entries = entries[:0]
		for l := mod.lMin[k]; l <= L; l++ {
			prob.SetObjective(mod.x(k, l), w*float64(tau[l-1+charge]))
			entries = append(entries, lp.Entry{Var: mod.x(k, l), Coef: 1})
		}
		prob.AddConstraint(entries, lp.EQ, 1)
	}

	// Load rows (11)/(12): for each port and interval l,
	// Σ_{u≤l} Σ_k load·x_u^(k) ≤ τ_l. Rows that cannot bind (total
	// feasible load ≤ τ_l) are pruned.
	addLoadRows := func(load [][]int64) {
		for port := 0; port < m; port++ {
			var total int64
			for k := 0; k < n; k++ {
				total += load[k][port]
			}
			for l := 1; l <= L; l++ {
				if total <= tau[l] {
					break // all longer intervals are slack too; an idle port has none
				}
				entries = entries[:0]
				for k := 0; k < n; k++ {
					if load[k][port] == 0 {
						continue
					}
					for u := mod.lMin[k]; u <= l; u++ {
						entries = append(entries, lp.Entry{Var: mod.x(k, u), Coef: float64(load[k][port])})
					}
				}
				if len(entries) > 0 {
					prob.AddConstraint(entries, lp.LE, float64(tau[l]))
				}
			}
		}
	}
	addLoadRows(rowLoad)
	addLoadRows(colLoad)
	return mod, nil
}

// WriteIntervalLPMPS writes the instance's interval-indexed relaxation
// in MPS format for cross-checking with external LP solvers.
func WriteIntervalLPMPS(w io.Writer, ins *coflowmodel.Instance, name string) error {
	model, err := buildIntervalLP(ins, Intervals, 0)
	if err != nil {
		return err
	}
	return lp.WriteMPS(w, model.prob, name)
}

// SolveIntervalLP builds and solves the interval-indexed relaxation
// (LP) for ins with the sparse pipeline. The instance must be valid
// and non-empty.
func SolveIntervalLP(ins *coflowmodel.Instance) (*IntervalSolution, error) {
	return SolveIntervalLPWith(ins, lp.MethodSparse)
}

// SolveIntervalLPWith is SolveIntervalLP with an explicit solver
// method; lp.MethodDense is the reference the differential tests
// compare against.
func SolveIntervalLPWith(ins *coflowmodel.Instance, method lp.Method) (*IntervalSolution, error) {
	return solveGridLP(ins, "interval LP", Intervals, 0, method)
}

// solveGridLP builds the relaxation called name (see buildIntervalLP
// for points and charge), solves it — the sparse pipeline starts at the
// H_ρ vertex — and reads the verified solution off.
func solveGridLP(ins *coflowmodel.Instance, name string, points func(T int64) []int64, charge int, method lp.Method) (*IntervalSolution, error) {
	mod, err := buildIntervalLP(ins, points, charge)
	if err != nil {
		return nil, err
	}
	var sol *lp.Solution
	if method == lp.MethodSparse {
		sol, err = lp.SolveSparseFrom(mod.prob, mod.greedyStart(ins))
	} else {
		sol, err = lp.SolveWith(mod.prob, method)
	}
	if err != nil {
		return nil, err
	}
	return mod.read(ins, name, sol)
}

// read verifies sol against the relaxation called name and reads it
// off: X, C̄ at the charged endpoints, the ordering by C̄.
func (m *intervalModel) read(ins *coflowmodel.Instance, name string, sol *lp.Solution) (*IntervalSolution, error) {
	n := len(ins.Coflows)
	prob, tau := m.prob, m.tau
	L := len(tau) - 1
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("lpmodel: %s not optimal: %v", name, sol.Status)
	}
	// Numerical insurance: the solution the orderings and lower bound
	// are built from must actually satisfy the relaxation.
	if err := lp.CheckFeasible(prob, sol.X, 1e-5); err != nil {
		return nil, fmt.Errorf("lpmodel: %s solution failed verification: %w", name, err)
	}

	out := &IntervalSolution{
		Tau:        tau,
		CBar:       make([]float64, n),
		X:          make([][]float64, n),
		LowerBound: sol.Objective,
		Iterations: sol.Iterations,
		Vars:       prob.NumVars(),
		Rows:       prob.NumConstraints(),
	}
	for k := 0; k < n; k++ {
		out.X[k] = make([]float64, L+1)
		for l := m.lMin[k]; l <= L; l++ {
			x := max(sol.X[m.x(k, l)], 0)
			out.X[k][l] = x
			out.CBar[k] += float64(tau[l-1+m.charge]) * x
		}
	}
	out.Order = OrderByCBar(ins, out.CBar)
	return out, nil
}

// AlphaPoints returns, per coflow, the α-point of the LP solution: the
// left endpoint τ_{l−1} of the first interval by which a cumulative
// x-mass of at least α has been scheduled. α-point orderings are the
// classic alternative to mean-completion-time orderings in
// LP-rounding scheduling (Skutella; Hall–Schulz–Shmoys–Wein, both
// cited by the paper): α near 1 orders by where the *bulk* of a coflow
// finishes rather than its average. α must lie in (0, 1].
func (s *IntervalSolution) AlphaPoints(alpha float64) ([]float64, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("lpmodel: alpha %g outside (0,1]", alpha)
	}
	out := make([]float64, len(s.X))
	for k, xs := range s.X {
		mass := 0.0
		point := float64(s.Tau[len(s.Tau)-1]) // fallback: horizon
		for l := 1; l < len(xs); l++ {
			mass += xs[l]
			if mass >= alpha-1e-9 {
				point = float64(s.Tau[l-1])
				break
			}
		}
		out[k] = point
	}
	return out, nil
}

// OrderByAlphaPoints orders coflows by nondecreasing α-points, ties by
// C̄ then ID.
func (s *IntervalSolution) OrderByAlphaPoints(ins *coflowmodel.Instance, alpha float64) ([]int, error) {
	pts, err := s.AlphaPoints(alpha)
	if err != nil {
		return nil, err
	}
	order := make([]int, len(pts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := order[a], order[b]
		if pts[ka] != pts[kb] {
			return pts[ka] < pts[kb]
		}
		if !cbarTied(s.CBar[ka], s.CBar[kb]) {
			return s.CBar[ka] < s.CBar[kb]
		}
		return ins.Coflows[ka].ID < ins.Coflows[kb].ID
	})
	return order, nil
}

// cbarTied reports whether two C̄ values are equal as far as the simplex
// can tell. C̄ runs to 10³–10⁵ and carries the rounding of the pivot
// path that produced it, so the tolerance is relative: the ordering is
// then a function of the optimum and not of the path (an absolute
// 1e-12 sat below that noise).
func cbarTied(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*max(1, math.Abs(a), math.Abs(b))
}

// LoadWeightOrder is H_ρ: coflow indices by nondecreasing ρ(D(k))/w_k,
// ties by coflow ID. It is an ordering in its own right (core.Schedule's
// OrderLoadWeight) and, being within a few percent of the LP's, the
// schedule the interval LP is started from (greedyStart).
func LoadWeightOrder(ins *coflowmodel.Instance) []int {
	m := ins.Ports
	key := make([]float64, len(ins.Coflows))
	for k := range ins.Coflows {
		key[k] = float64(ins.Coflows[k].Load(m)) / ins.Coflows[k].Weight
	}
	order := make([]int, len(ins.Coflows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := order[a], order[b]
		if key[ka] != key[kb] {
			return key[ka] < key[kb]
		}
		return ins.Coflows[ka].ID < ins.Coflows[kb].ID
	})
	return order
}

// OrderByCBar returns coflow indices sorted by nondecreasing C̄, ties
// broken by coflow ID (deterministic reproduction of ordering (15)).
func OrderByCBar(ins *coflowmodel.Instance, cbar []float64) []int {
	order := make([]int, len(cbar))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ka, kb := order[a], order[b]
		if !cbarTied(cbar[ka], cbar[kb]) {
			return cbar[ka] < cbar[kb]
		}
		return ins.Coflows[ka].ID < ins.Coflows[kb].ID
	})
	return order
}

// MaxTotalLoads computes V_k (Eq. 16) for each prefix of the given
// ordering: V[pos] is the maximum, over all ports, of the cumulative
// load of coflows order[0..pos]. Every V[pos] is a lower bound on the
// time needed to finish those coflows under any schedule (Lemma 2).
func MaxTotalLoads(ins *coflowmodel.Instance, order []int) []int64 {
	m := ins.Ports
	rows := make([]int64, m)
	cols := make([]int64, m)
	out := make([]int64, len(order))
	var cur int64
	for pos, k := range order {
		for _, f := range ins.Coflows[k].Flows {
			rows[f.Src] += f.Size
			cols[f.Dst] += f.Size
			if rows[f.Src] > cur {
				cur = rows[f.Src]
			}
			if cols[f.Dst] > cur {
				cur = cols[f.Dst]
			}
		}
		out[pos] = cur
	}
	return out
}

// TimeIndexedSolution is the outcome of solving (LP-EXP).
type TimeIndexedSolution struct {
	// CBar[k] = Σ_t t·z̄_t^(k), the relaxed completion time.
	CBar []float64
	// LowerBound is the LP-EXP objective value: a lower bound on the
	// optimum that is at least as tight as the interval LP's.
	LowerBound float64
	// Iterations is the simplex iteration count.
	Iterations int
	// Vars and Rows describe the solved LP's size.
	Vars, Rows int
}

// MaxTimeIndexedVars and MaxTimeIndexedHorizon bound the size of
// (LP-EXP) instances this implementation accepts. The program has a
// variable per coflow and slot, so it grows with the horizon rather
// than the input, and no test or experiment has solved a larger one
// (the paper itself calls LP-EXP "extremely time consuming to solve").
const (
	MaxTimeIndexedVars    = 20000
	MaxTimeIndexedHorizon = 50000
)

// SolveTimeIndexedLP builds and solves the time-indexed relaxation
// (LP-EXP) with the sparse pipeline. It returns an error if the
// instance's horizon makes the program larger than MaxTimeIndexedVars
// variables.
func SolveTimeIndexedLP(ins *coflowmodel.Instance) (*TimeIndexedSolution, error) {
	return SolveTimeIndexedLPWith(ins, lp.MethodSparse)
}

// SolveTimeIndexedLPWith is SolveTimeIndexedLP with an explicit
// solver method. (LP-EXP) is the interval builder's program on the
// unit grid; only the size guards and the result type are its own.
func SolveTimeIndexedLPWith(ins *coflowmodel.Instance, method lp.Method) (*TimeIndexedSolution, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	T := max(ins.Horizon(), 1)
	if T > MaxTimeIndexedHorizon {
		return nil, fmt.Errorf("lpmodel: LP-EXP horizon %d exceeds limit %d; use SolveIntervalLP",
			T, MaxTimeIndexedHorizon)
	}
	// One variable z_t^(k) per coflow and slot t = max(1, r_k + ρ_k)..T.
	numVars := 0
	for _, c := range ins.Coflows {
		numVars += int(T - max(c.Release+c.Load(ins.Ports), 1) + 1)
	}
	if numVars > MaxTimeIndexedVars {
		return nil, fmt.Errorf("lpmodel: LP-EXP would need %d variables (limit %d); use SolveIntervalLP",
			numVars, MaxTimeIndexedVars)
	}
	sol, err := solveGridLP(ins, "LP-EXP", unitPoints, 1, method)
	if err != nil {
		return nil, err
	}
	return &TimeIndexedSolution{
		CBar:       sol.CBar,
		LowerBound: sol.LowerBound,
		Iterations: sol.Iterations,
		Vars:       sol.Vars,
		Rows:       sol.Rows,
	}, nil
}

// TrivialLowerBound returns Σ_k w_k·(r_k + ρ_k): every coflow needs at
// least its own load after release, regardless of contention. Weaker
// than the LP bounds but free; useful as a sanity floor.
func TrivialLowerBound(ins *coflowmodel.Instance) float64 {
	var lb float64
	for k := range ins.Coflows {
		c := &ins.Coflows[k]
		lb += c.Weight * float64(c.Release+c.Load(ins.Ports))
	}
	return lb
}
