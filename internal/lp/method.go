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

import "fmt"

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

// SolveSparse solves p by presolve + revised simplex, reconstructing
// the full primal solution through postsolve. It honors the same
// status contract as Solve; on numerical breakdown in the sparse
// basis handling (rare; counted by the SparseFallbacks metric) it
// transparently falls back to the dense solver so callers never see
// the difference. Fallback or not, one call is one Solves increment
// and one SolveSeconds observation.
func SolveSparse(p *Problem) (*Solution, error) {
	return solveSparse(p, solveRevised)
}

// solveSparse is SolveSparse with the revised-simplex stage passed in,
// so a test can make it fail and reach the fallback branch.
func solveSparse(p *Problem, revised func(*Problem) (*Solution, error)) (*Solution, error) {
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
	ps, err := Presolve(p)
	psSpan.End()
	if err != nil {
		return nil, err
	}
	recordPresolveStats(ps.Stats())

	if ps.Decided() {
		return &Solution{Status: Infeasible, X: make([]float64, p.numVars)}, nil
	}

	rsol, err := revised(ps.Reduced())
	if err != nil {
		pkgObs.SparseFallbacks.Inc()
		return solveDense(p), nil
	}
	if rsol.Status != Optimal {
		return &Solution{
			Status:     rsol.Status,
			X:          make([]float64, p.numVars),
			Iterations: rsol.Iterations,
		}, nil
	}
	x, err := ps.Postsolve(rsol.X)
	if err != nil {
		return nil, err
	}
	return &Solution{
		Status:     Optimal,
		X:          x,
		Objective:  Objective(p, x),
		Iterations: rsol.Iterations,
	}, nil
}

// recordPresolveStats mirrors one presolve's reduction counts into the
// package metrics.
func recordPresolveStats(s PresolveStats) {
	pkgObs.PresolveEmptyRows.Add(int64(s.EmptyRows))
	pkgObs.PresolveSingletonRows.Add(int64(s.SingletonRows))
	pkgObs.PresolveRedundantRows.Add(int64(s.RedundantRows))
}
