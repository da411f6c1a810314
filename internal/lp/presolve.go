package lp

// Presolve shrinks an LP before the simplex sees it, and it does so by
// dropping rows only: the reduced problem has exactly the original
// columns in the original order, so a basis of one reduced problem
// still names the columns of the next. The interval- and time-indexed
// coflow relaxations are the target workload, and the reductions kept
// are the ones their constraint matrices fire (DESIGN.md "Sparse LP
// pipeline" has the per-reduction traffic table):
//
//   - empty rows (dropped when satisfiable, else infeasible);
//   - singleton rows, converted into variable bounds;
//   - rows that cannot bind under those bounds (redundant), and rows
//     that cannot be met under them (infeasible).
//
// The bounds are enforced ones only: the original x ≥ 0 and what
// singleton rows state. The reduced problem guarantees them by
// construction — a lower bound by shifting the variable so it is again
// x′ ≥ 0, an upper bound by one re-emitted row x′ ≤ up − lo — so a row
// dropped as redundant stays satisfied by every solution of the
// REDUCED problem, and Postsolve is x′ + shift. A singleton equality
// needs no case of its own: it sets both bounds and comes out as a
// shift plus the row x′ ≤ 0. Postsolve correctness is the contract the
// property tests in presolve_test.go pin: the lifted solution passes
// CheckFeasible on the original problem with the oracle's objective.

import (
	"fmt"
	"math"
)

// PresolveStats counts the reductions applied, for reporting through
// the obs layer and the benchmark's lp.presolve_removed.
type PresolveStats struct {
	EmptyRows     int // satisfiable rows with no entries, dropped
	SingletonRows int // rows converted to variable bounds
	RedundantRows int // rows that cannot bind under enforced bounds
	Passes        int // full sweeps over the rows, one or two
}

// Total returns the number of rows removed (passes excluded).
func (s *PresolveStats) Total() int {
	return s.EmptyRows + s.SingletonRows + s.RedundantRows
}

// psRow is one constraint row during presolve: the original row with
// duplicate entries coalesced and zeros dropped.
type psRow struct {
	entries []Entry
	sense   Sense
	rhs     float64
	dead    bool
}

// Presolved is the outcome of Presolve: either a proof that the
// problem is infeasible, or a reduced problem over the same columns
// plus the shift that lifts its solutions back.
type Presolved struct {
	stats      PresolveStats
	infeasible bool
	reduced    *Problem
	// shift[v] is the enforced lower bound of v, added back on
	// postsolve (reduced variables are shifted to a zero lower bound).
	shift []float64
}

// Stats returns the per-reduction counts.
func (ps *Presolved) Stats() PresolveStats { return ps.stats }

// Decided reports whether presolve settled the problem outright. The
// only verdict it can reach is Infeasible — an optimum or an unbounded
// ray needs the simplex — and Reduced then returns nil.
func (ps *Presolved) Decided() bool { return ps.infeasible }

// Reduced returns the reduced problem, or nil when the problem was
// found infeasible. It has the original problem's variables, in order.
func (ps *Presolved) Reduced() *Problem { return ps.reduced }

const (
	psTol = 1e-9 // zero/coincidence tolerance on bounds and coefficients
	// psFeasTol guards every Infeasible verdict. It matches the dense
	// solver's epsFeas so presolve never declares infeasible a problem
	// the oracle would accept as feasible within tolerance.
	psFeasTol = 1e-6
	psInf     = math.MaxFloat64
)

// Presolve runs the reduction loop on p. The input problem is not
// modified. An error is returned only for invalid input.
func Presolve(p *Problem) (*Presolved, error) {
	if p == nil || p.numVars == 0 {
		return nil, ErrBadProblem
	}
	return new(presolver).run(p), nil
}

// Postsolve lifts a solution of the reduced problem back to a solution
// of the original problem: the same variables, each moved back by its
// shift.
func (ps *Presolved) Postsolve(xReduced []float64) ([]float64, error) {
	if len(xReduced) != len(ps.shift) {
		return nil, fmt.Errorf("lp: postsolve got %d vars, problem has %d", len(xReduced), len(ps.shift))
	}
	x := make([]float64, len(xReduced))
	for v, xv := range xReduced {
		x[v] = xv + ps.shift[v]
	}
	return x, nil
}

// presolver is the working state of Presolve and owns what it hands
// out: the Presolved, its reduced problem and their rows are resliced
// for the next run, so a Solver's presolver allocates only while it
// grows and a result is valid until that Solver's next solve.
type presolver struct {
	rows []psRow
	// arena holds every row's coalesced entries back to back, then the
	// one-entry bound rows extract re-emits.
	arena []Entry
	acc   []float64 // dense accumulator of the row being coalesced
	seen  []bool
	// lo and up are the enforced bounds: x ≥ 0 plus singleton rows.
	lo, up []float64
	stats  PresolveStats

	infeasible bool

	ps  Presolved
	red Problem
}

// load copies p's rows, coalescing duplicate entries (in first-seen
// order) and dropping zeros so entry counts mean what the reductions
// think they mean.
func (w *presolver) load(p *Problem) {
	nnz := 0
	for _, r := range p.rows {
		nnz += len(r.entries)
	}
	w.rows = grow(w.rows, len(p.rows))
	w.arena = grow(w.arena, nnz+p.numVars)[:0]
	w.acc = grow(w.acc, p.numVars)
	w.seen = grow(w.seen, p.numVars)
	w.lo = grow(w.lo, p.numVars)
	w.up = grow(w.up, p.numVars)
	for v := range w.up {
		w.up[v] = psInf
	}
	w.stats, w.infeasible = PresolveStats{}, false
	for i, r := range p.rows {
		from := len(w.arena)
		for _, e := range r.entries {
			if !w.seen[e.Var] {
				w.seen[e.Var] = true
				w.arena = append(w.arena, Entry{Var: e.Var})
			}
			w.acc[e.Var] += e.Coef
		}
		kept := from
		for _, e := range w.arena[from:] {
			c := w.acc[e.Var]
			w.acc[e.Var], w.seen[e.Var] = 0, false
			if math.Abs(c) > psTol {
				w.arena[kept] = Entry{Var: e.Var, Coef: c}
				kept++
			}
		}
		w.arena = w.arena[:kept]
		w.rows[i] = psRow{entries: w.arena[from:kept:kept], sense: r.sense, rhs: r.rhs}
	}
}

// run loads p, sweeps the live rows until no bound moves and extracts
// the result. Whether a row can be dropped depends on the bounds alone
// and only singleton rows move a bound, so two sweeps are the most it
// takes: the second exists for the rows that sit ahead of a singleton
// row and were checked before its bound was known.
func (w *presolver) run(p *Problem) *Presolved {
	w.load(p)
	for moved := true; moved && !w.infeasible; {
		w.stats.Passes++
		moved = false
		for i := range w.rows {
			if w.infeasible {
				break
			}
			if !w.rows[i].dead && w.reduceRow(i) {
				moved = true
			}
		}
	}
	return w.extract(p)
}

// reduceRow applies the reduction that fits live row i's shape and
// reports whether it moved an enforced bound.
func (w *presolver) reduceRow(i int) bool {
	switch len(w.rows[i].entries) {
	case 0:
		w.emptyRow(i)
	case 1:
		return w.singletonRow(i)
	default:
		w.activityRow(i)
	}
	return false
}

// emptyRow decides a row with no entries: 0 (sense) rhs. The
// satisfiability margin is psFeasTol-scaled: the dense oracle's
// phase 1 tolerates residuals up to epsFeas, so an empty row violated
// by less than that must not be ruled infeasible here.
func (w *presolver) emptyRow(i int) {
	r := &w.rows[i]
	tol := psFeasTol * (1 + math.Abs(r.rhs))
	ok := true
	switch r.sense {
	case LE:
		ok = r.rhs >= -tol
	case GE:
		ok = r.rhs <= tol
	case EQ:
		ok = math.Abs(r.rhs) <= tol
	}
	if !ok {
		w.infeasible = true
		return
	}
	r.dead = true
	w.stats.EmptyRows++
}

// singletonRow converts a·x (sense) b into bounds on x and drops the
// row, reporting whether a bound moved. The bound replaces a real
// constraint, so extraction re-emits it (upper bounds) or shifts it
// away (lower bounds).
func (w *presolver) singletonRow(i int) (moved bool) {
	r := &w.rows[i]
	e := r.entries[0]
	v, bound := e.Var, r.rhs/e.Coef
	// LE with a negative coefficient and GE with a positive one bound x
	// from below; an equality bounds it from both sides.
	lower := r.sense == EQ || (r.sense == GE) == (e.Coef > 0)
	upper := r.sense == EQ || !lower
	if lower && bound > w.lo[v] {
		w.lo[v], moved = bound, true
	}
	if upper && bound < w.up[v] {
		w.up[v], moved = bound, true
	}
	r.dead = true
	w.stats.SingletonRows++
	// The infeasibility margin mirrors the dense solver's epsFeas
	// contract: a contradiction smaller than what phase 1 would
	// tolerate must not flip the status to Infeasible.
	if w.lo[v] > w.up[v]+psFeasTol*(1+math.Abs(w.lo[v])) {
		w.infeasible = true
	}
	return moved
}

// activityRow checks a multi-entry row against its activity range
// under the enforced bounds: a row the range cannot meet decides the
// problem, a row the range cannot violate is dropped.
func (w *presolver) activityRow(i int) {
	r := &w.rows[i]
	min, max := w.activity(r)
	feasTol := psFeasTol * (1 + math.Abs(r.rhs))
	tooHigh := r.sense != GE && min > r.rhs+feasTol
	tooLow := r.sense != LE && max < r.rhs-feasTol
	if tooHigh || tooLow {
		w.infeasible = true
	} else if (r.sense == LE && max <= r.rhs+psTol) || (r.sense == GE && min >= r.rhs-psTol) {
		r.dead = true
		w.stats.RedundantRows++
	}
}

// activity returns the row's activity range under the enforced bounds.
// Infinite contributions saturate to ±psInf.
func (w *presolver) activity(r *psRow) (min, max float64) {
	for _, e := range r.entries {
		// atMin and atMax are the values of x that minimize and maximize
		// coef·x; only an upper bound can be infinite.
		atMin, atMax := w.lo[e.Var], w.up[e.Var]
		if e.Coef < 0 {
			atMin, atMax = atMax, atMin
		}
		if atMin >= psInf {
			min = -psInf
		} else if min > -psInf {
			min += e.Coef * atMin
		}
		if atMax >= psInf {
			max = psInf
		} else if max < psInf {
			max += e.Coef * atMax
		}
	}
	return min, max
}

// extract assembles the Presolved result: the infeasibility verdict, or
// the reduced problem — every column kept and shifted to a zero lower
// bound, the live rows restated for the shift, and each enforced upper
// bound re-emitted as a singleton row.
func (w *presolver) extract(p *Problem) *Presolved {
	w.ps = Presolved{stats: w.stats, infeasible: w.infeasible, shift: w.lo}
	if w.infeasible {
		return &w.ps
	}
	red := &w.red
	red.numVars = p.numVars
	red.obj = append(red.obj[:0], p.obj...)
	red.rows = red.rows[:0]
	for i := range w.rows {
		r := &w.rows[i]
		if r.dead {
			continue
		}
		rhs := r.rhs
		for _, e := range r.entries {
			rhs -= e.Coef * w.lo[e.Var]
		}
		red.rows = append(red.rows, row{entries: r.entries, sense: r.sense, rhs: rhs})
	}
	for v, up := range w.up {
		if up < psInf {
			w.arena = append(w.arena, Entry{Var: v, Coef: 1})
			n := len(w.arena)
			red.rows = append(red.rows, row{entries: w.arena[n-1 : n : n], sense: LE, rhs: up - w.lo[v]})
		}
	}
	w.ps.reduced = red
	return &w.ps
}
