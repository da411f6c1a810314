package lp

// The presolve + revised-simplex pipeline (presolve.go, sparse.go) is
// the production solver: lpmodel's SolveIntervalLP/SolveTimeIndexedLP
// always call it. Presolve drops rows and shifts variables but keeps
// every column in place, so the simplex's X is the caller's X moved by
// a constant per variable. The dense tableau (lp.go) solves the same problem
// class with the same status contract and stays for two jobs only: the
// sequential reference the differential tests and goldens compare
// against, and SolveSparse's fallback on numerical breakdown. Method
// exists so those tests and the benchmark can name either solver.

import (
	"fmt"
	"runtime"
)

// Method selects the simplex implementation used by SolveWith.
type Method int

const (
	// MethodDense is the two-phase dense tableau simplex, the
	// reference and fallback.
	MethodDense Method = iota
	// MethodSparse is presolve + sparse revised simplex with LU/eta
	// basis updates, the production path.
	MethodSparse
)

func (m Method) String() string {
	switch m {
	case MethodDense:
		return "dense"
	case MethodSparse:
		return "sparse"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// SolveWith dispatches Solve (dense) or SolveSparse by method.
func SolveWith(p *Problem, m Method) (*Solution, error) {
	if m == MethodSparse {
		return SolveSparse(p)
	}
	return Solve(p)
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

// SolveSparse solves p by presolve + revised simplex on a resident
// Solver, from the slack/artificial basis.
func SolveSparse(p *Problem) (*Solution, error) {
	return SolveSparseFrom(p, nil)
}

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
// full primal solution through postsolve. It honors the same status
// contract as the dense Solve; on numerical breakdown in the sparse
// basis handling (rare; counted by the SparseFallbacks metric) it
// transparently falls back to the dense solver so callers never see
// the difference. Fallback or not, one call is one Solves increment
// and one SolveSeconds observation.
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
// can make it fail and reach the fallback branch.
func (s *Solver) solve(p *Problem, start []int, simplex func(*revised, *Problem, []int) (Status, int, error)) (*Solution, error) {
	if p == nil || p.numVars == 0 {
		return nil, ErrBadProblem
	}
	solveSpan := pkgObs.SolveSeconds.Start()
	defer func() {
		pkgObs.Solves.Inc()
		pkgObs.SparseSolves.Inc()
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
	if err != nil {
		pkgObs.SparseFallbacks.Inc()
		return solveDense(p), nil
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
