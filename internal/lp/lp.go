// Package lp implements a self-contained linear programming solver.
// Solver — presolve, a sparse revised simplex, postsolve, and the memory
// all three reuse from one solve to the next — is the one simplex in the
// package, reached through SolveSparseFrom and its store of resident
// Solvers (see method.go). Its reference oracle, a two-phase dense
// tableau, lives in internal/lp/dense, which only tests import. The
// package starts no goroutine.
//
// It exists to solve the paper's interval-indexed relaxation (LP) and
// the time-indexed (LP-EXP); both are pure minimization problems with
// non-negative variables, ≤ load constraints and = convexity
// constraints, which is exactly the form this solver targets:
//
//	minimize    c·x
//	subject to  a_i·x  (≤ | = | ≥)  b_i   for each constraint i
//	            x ≥ 0
//
// The solver is deterministic: identical inputs produce identical
// optimal bases, so the coflow ordering derived from LP solutions is
// reproducible across runs.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the relation of a constraint row.
type Sense int

const (
	// LE is a ≤ constraint.
	LE Sense = iota
	// EQ is an = constraint.
	EQ
	// GE is a ≥ constraint.
	GE
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case EQ:
		return "="
	case GE:
		return ">="
	}
	return fmt.Sprintf("Sense(%d)", int(s))
}

// Entry is one non-zero coefficient of a constraint row.
type Entry struct {
	Var  int
	Coef float64
}

type row struct {
	entries []Entry
	sense   Sense
	rhs     float64
}

// Problem is an LP in the form documented on the package. Variables
// are indexed 0..NumVars-1 and implicitly non-negative.
type Problem struct {
	numVars int
	obj     []float64
	rows    []row
}

// NewProblem creates a problem with numVars non-negative variables and
// an all-zero objective.
func NewProblem(numVars int) *Problem {
	if numVars <= 0 {
		panic(fmt.Sprintf("lp: invalid variable count %d", numVars))
	}
	return &Problem{numVars: numVars, obj: make([]float64, numVars)}
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.numVars }

// NumConstraints returns the number of constraint rows added so far.
func (p *Problem) NumConstraints() int { return len(p.rows) }

// Row returns constraint i: its entries as added (the problem's own
// slice, not to be modified), its sense and its right-hand side.
func (p *Problem) Row(i int) ([]Entry, Sense, float64) {
	r := p.rows[i]
	return r.entries, r.sense, r.rhs
}

// Cost returns the objective coefficient of variable v.
func (p *Problem) Cost(v int) float64 { return p.obj[v] }

// SetObjective sets the coefficient of variable v in the (minimized)
// objective.
func (p *Problem) SetObjective(v int, coef float64) {
	p.checkVar(v)
	p.obj[v] = coef
}

// AddConstraint appends the row Σ entries (sense) rhs. Entries may
// repeat a variable; coefficients accumulate.
func (p *Problem) AddConstraint(entries []Entry, sense Sense, rhs float64) {
	for _, e := range entries {
		p.checkVar(e.Var)
	}
	cp := make([]Entry, len(entries))
	copy(cp, entries)
	p.rows = append(p.rows, row{entries: cp, sense: sense, rhs: rhs})
}

func (p *Problem) checkVar(v int) {
	if v < 0 || v >= p.numVars {
		panic(fmt.Sprintf("lp: variable %d out of range [0,%d)", v, p.numVars))
	}
}

// Status reports how a solve terminated.
type Status int

const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies all constraints.
	Infeasible
	// Unbounded means the objective decreases without bound.
	Unbounded
	// IterLimit means the iteration budget was exhausted.
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of a solve.
type Solution struct {
	Status     Status
	X          []float64 // structural variable values (len NumVars)
	Objective  float64
	Iterations int
}

// The revised simplex's tolerances and caps. internal/lp/dense keeps
// its own copies: the oracle shares the contract, not the code.
const (
	epsPivot     = 1e-9  // minimum magnitude for a pivot element
	epsReduced   = 1e-9  // tolerance on reduced costs
	looseReduced = 1e-6  // residual reduced cost treated as optimal when no pivot exists
	epsFeas      = 1e-6  // feasibility tolerance on phase-1 objective
	blandAfter   = 2000  // iterations of Dantzig pricing before switching to Bland
	iterFactor   = 200   // iteration cap = iterFactor * (rows + cols)
	iterFloor    = 20000 // minimum iteration cap
)

// ErrBadProblem is returned for structurally invalid problems.
var ErrBadProblem = errors.New("lp: invalid problem")

// CheckFeasible verifies that x satisfies every constraint of p within
// tol, returning a descriptive error for the first violation. Used by
// tests and by callers that want to assert solver output.
func CheckFeasible(p *Problem, x []float64, tol float64) error {
	if len(x) != p.numVars {
		return fmt.Errorf("lp: solution has %d vars, problem has %d", len(x), p.numVars)
	}
	for v, xv := range x {
		if xv < -tol {
			return fmt.Errorf("lp: variable %d negative: %g", v, xv)
		}
	}
	for i, r := range p.rows {
		var lhs float64
		for _, e := range r.entries {
			lhs += e.Coef * x[e.Var]
		}
		switch r.sense {
		case LE:
			if lhs > r.rhs+tol {
				return fmt.Errorf("lp: row %d: %g <= %g violated", i, lhs, r.rhs)
			}
		case GE:
			if lhs < r.rhs-tol {
				return fmt.Errorf("lp: row %d: %g >= %g violated", i, lhs, r.rhs)
			}
		case EQ:
			if math.Abs(lhs-r.rhs) > tol {
				return fmt.Errorf("lp: row %d: %g = %g violated", i, lhs, r.rhs)
			}
		}
	}
	return nil
}

// Objective evaluates p's objective at x.
func Objective(p *Problem, x []float64) float64 {
	var obj float64
	for v, c := range p.obj {
		obj += c * x[v]
	}
	return obj
}
