package lp

// The presolve + revised-simplex pipeline (presolve.go, sparse.go) is
// the one solver: lpmodel's SolveIntervalLP/SolveTimeIndexedLP always
// call it. Presolve drops rows and shifts variables but keeps every
// column in place, so the simplex's X is the caller's X moved by a
// constant per variable. A breakdown of the revised simplex on a run
// from a seated start basis restarts it once from the cold basis; any
// other breakdown is returned as an error. Method exists so the tests
// can hand the dense oracle (internal/lp/dense) to the paths that take
// a solver, and the benchmark can name this one.

import (
	"fmt"
	"runtime"
)

// Method is a solver: it solves p from the start basis start (nil:
// cold), which it may ignore.
type Method func(p *Problem, start []int) (*Solution, error)

// MethodSparse is SolveSparseFrom, the production solver.
var MethodSparse Method = SolveSparseFrom

// SolveWith solves p cold with m.
func SolveWith(p *Problem, m Method) (*Solution, error) {
	return m(p, nil)
}

// Solver is the sparse pipeline with its memory: presolve scratch and
// the reduced problem, the standard form by column (CSC) and by row,
// the LU factors with their row-wise U and L reader index, the
// factorization's reach bitmap, the eta file and every dense work
// vector (duals, reduced costs, FTRAN columns) are kept from one Solve
// to the next and resliced for the new problem, so solving a problem
// no larger than an earlier one allocates only the returned Solution.
// No value survives from one solve into the next one's arithmetic. The
// zero value is ready; a Solver serves one solve at a time.
type Solver struct {
	pre presolver
	rev revised
}

// solvers holds the idle resident Solvers: SolveSparseFrom takes one,
// or builds one when none is idle, and keeps it afterwards if a slot is
// free, else drops it. Unlike a sync.Pool, it is not emptied by garbage
// collection, so a workspace is not rebuilt after every cycle. The
// price is retention: at most GOMAXPROCS idle Solvers, each as large as
// the largest problem it has solved.
var solvers = make(chan *Solver, runtime.GOMAXPROCS(0))

// SolveSparseFrom is Solver.Solve on a resident Solver.
func SolveSparseFrom(p *Problem, start []int) (*Solution, error) {
	var s *Solver
	select {
	case s = <-solvers:
	default:
		s = new(Solver)
	}
	sol, err := s.Solve(p, start)
	select {
	case solvers <- s:
	default:
	}
	return sol, err
}

// Solve solves p by presolve + revised simplex, reconstructing the
// full primal solution through postsolve. Infeasibility, unboundedness
// and the iteration cap are reported via Status; the error is non-nil
// for a structurally invalid problem and for numerical breakdown in the
// sparse basis handling. A breakdown on a run from a seated start basis
// is retried once from the cold basis (counted by the SparseFallbacks
// metric), and the answer is then the cold solve's; a breakdown of a
// cold run or of that restart is the error. Restart or not, one call is
// one Solves increment and one SolveSeconds observation.
//
// start, when not empty, names structural columns of p to make basic
// before the first pivot — a vertex the caller believes near-optimal.
// It is a hint and is never trusted: columns that cannot take an
// artificial's place are skipped, and unless the resulting basis
// factors and is primal feasible the solver drops all of it and starts
// cold (StartInstalled counts columns kept, StartDiscarded starts
// dropped). The status and the optimal value do not depend on start;
// which optimal vertex is returned may. With no start the arithmetic
// is that of a fresh Solver, whatever was solved before.
func (s *Solver) Solve(p *Problem, start []int) (*Solution, error) {
	return s.solve(p, start, (*revised).solve)
}

// solve is Solve with the revised-simplex stage passed in, so a test
// can make it break down and reach the restart and the error.
func (s *Solver) solve(p *Problem, start []int, simplex func(*revised, *Problem, []int) (Status, int, error)) (*Solution, error) {
	if p == nil || p.numVars == 0 {
		return nil, ErrBadProblem
	}
	solveSpan := pkgObs.SolveSeconds.Start()
	defer func() {
		pkgObs.Solves.Inc()
		solveSpan.End()
	}()

	psSpan := pkgObs.PresolveSeconds.Start()
	ps := s.pre.run(p)
	psSpan.End()
	recordPresolveStats(ps.Stats())

	if ps.Decided() {
		return &Solution{Status: Infeasible, X: make([]float64, p.numVars)}, nil
	}

	status, iters, err := simplex(&s.rev, ps.Reduced(), start)
	if err != nil && s.rev.warm {
		// The start led the arithmetic astray; a cold run does not
		// depend on it.
		pkgObs.SparseFallbacks.Inc()
		status, iters, err = simplex(&s.rev, ps.Reduced(), nil)
	}
	if err != nil {
		return nil, fmt.Errorf("lp: revised simplex broke down: %w", err)
	}
	if status != Optimal {
		return &Solution{Status: status, X: make([]float64, p.numVars), Iterations: iters}, nil
	}
	x, err := ps.Postsolve(s.rev.x)
	if err != nil {
		return nil, err
	}
	return &Solution{Status: Optimal, X: x, Objective: Objective(p, x), Iterations: iters}, nil
}

// recordPresolveStats mirrors one presolve's reduction counts into the
// package metrics.
func recordPresolveStats(s PresolveStats) {
	pkgObs.PresolveEmptyRows.Add(int64(s.EmptyRows))
	pkgObs.PresolveSingletonRows.Add(int64(s.SingletonRows))
	pkgObs.PresolveRedundantRows.Add(int64(s.RedundantRows))
}
