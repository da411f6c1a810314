package lp_test

// The status contract where the production pipeline, its raw revised
// simplex and the dense oracle must agree, and the breakdown rule: a
// run from a seated start basis that breaks down restarts once cold;
// every other breakdown is the caller's error.

import (
	"errors"
	"math"
	"slices"
	"testing"

	"coflow/internal/lp"
	"coflow/internal/lp/dense"
	"coflow/internal/obs"
)

// requireStatus runs p through the pipeline, the raw revised simplex
// and the dense oracle and requires the same verdict from all three.
func requireStatus(t *testing.T, label string, p *lp.Problem, want lp.Status) {
	t.Helper()
	for _, run := range []struct {
		name  string
		solve func(*lp.Problem) (*lp.Solution, error)
	}{
		{"pipeline", func(p *lp.Problem) (*lp.Solution, error) { return lp.SolveSparseFrom(p, nil) }},
		{"revised", lp.SolveRevised},
		{"dense", func(p *lp.Problem) (*lp.Solution, error) { return dense.Solve(p, nil) }},
	} {
		sol, err := run.solve(p)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, run.name, err)
		}
		if sol.Status != want {
			t.Fatalf("%s: %s status = %v, want %v", label, run.name, sol.Status, want)
		}
	}
}

func TestSparseInfeasible(t *testing.T) {
	// Multi-entry rows so presolve cannot shortcut the verdict on its
	// own in every case; pipeline and raw solver must both say so.
	p := lp.NewProblem(2)
	p.AddConstraint([]lp.Entry{{0, 1}, {1, 1}}, lp.GE, 4)
	p.AddConstraint([]lp.Entry{{0, 1}, {1, 1}}, lp.LE, 1)
	requireStatus(t, "conflicting rows", p, lp.Infeasible)

	// x0 is a negative-cost column in no row, an open ray — but x1's
	// bounds contradict, and infeasibility outranks the ray.
	q := lp.NewProblem(2)
	q.SetObjective(0, -1)
	q.AddConstraint([]lp.Entry{{1, 1}}, lp.GE, 1)
	q.AddConstraint([]lp.Entry{{1, 1}}, lp.LE, 0)
	requireStatus(t, "open ray beside crossed bounds", q, lp.Infeasible)
}

func TestSparseUnbounded(t *testing.T) {
	// min −x0 − x1 s.t. x0 − x1 ≤ 1: the ray (t, t) is unbounded.
	p := lp.NewProblem(2)
	p.SetObjective(0, -1)
	p.SetObjective(1, -1)
	p.AddConstraint([]lp.Entry{{0, 1}, {1, -1}}, lp.LE, 1)
	requireStatus(t, "ray", p, lp.Unbounded)

	// x0 is a negative-cost column in no row. Presolve leaves columns
	// alone and never rules Unbounded (that needs proof of feasibility),
	// so the simplex finds the ray after the x1 ≥ 1 row is met.
	q := lp.NewProblem(2)
	q.SetObjective(0, -1)
	q.SetObjective(1, 1)
	q.AddConstraint([]lp.Entry{{1, 1}}, lp.GE, 1)
	ps, err := lp.Presolve(q)
	if err != nil {
		t.Fatalf("presolve: %v", err)
	}
	if ps.Decided() {
		t.Fatal("presolve decided an unbounded problem; that verdict belongs to the simplex")
	}
	requireStatus(t, "empty negative-cost column", q, lp.Unbounded)
}

func TestSparseDegenerateCyclingProne(t *testing.T) {
	// Kuhn's degenerate instance: multiple zero-ratio pivots at the
	// origin; plain Dantzig pricing can cycle without the Bland
	// fallback. Optimal value is -2 at (2, 0, 1).
	p := lp.NewProblem(3)
	p.SetObjective(0, -2)
	p.SetObjective(1, -3)
	p.SetObjective(2, 1)
	p.AddConstraint([]lp.Entry{{0, 1}, {1, 2}, {2, -2}}, lp.LE, 0)
	p.AddConstraint([]lp.Entry{{0, 1}, {1, 4}, {2, -1}}, lp.LE, 1)
	p.AddConstraint([]lp.Entry{{0, -1}, {1, -1}, {2, 1}}, lp.LE, 0)
	oracle, err := dense.Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := lp.SolveSparseFrom(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != oracle.Status {
		t.Fatalf("status: sparse %v, dense %v", sol.Status, oracle.Status)
	}
	if oracle.Status == lp.Optimal && math.Abs(sol.Objective-oracle.Objective) > 1e-6 {
		t.Fatalf("objective: sparse %g, dense %g", sol.Objective, oracle.Objective)
	}
}

func TestSolveWithDispatch(t *testing.T) {
	p := lp.NewProblem(1)
	p.SetObjective(0, -1)
	p.AddConstraint([]lp.Entry{{0, 2}}, lp.LE, 6)
	for _, m := range methods {
		sol, err := lp.SolveWith(p, m.solve)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if sol.Status != lp.Optimal || math.Abs(sol.Objective-(-3)) > 1e-9 {
			t.Fatalf("%s: got %v obj %g, want optimal -3", m.name, sol.Status, sol.Objective)
		}
	}
	if _, err := lp.SolveWith(nil, lp.MethodSparse); err == nil {
		t.Fatal("SolveWith(nil) succeeded")
	}
}

// TestSparseFallbackCountedOnce plants a breakdown in a run from a
// seated start: the solver restarts cold, answers what a cold solve
// answers bit for bit — the oracle's optimum — and the metrics read one
// solve with one restart.
func TestSparseFallbackCountedOnce(t *testing.T) {
	p, start := lp.TwoJobs(), []int{1, 2}
	oracle, err := dense.Solve(p, nil)
	if err != nil || oracle.Status != lp.Optimal {
		t.Fatalf("oracle: %+v %v", oracle, err)
	}
	cold, err := new(lp.Solver).Solve(p, nil)
	if err != nil {
		t.Fatal(err)
	}

	o := lp.NewObs(obs.NewRegistry())
	lp.SetObs(o)
	defer lp.SetObs(lp.Obs{})
	runs := 0
	got, err := new(lp.Solver).SolveBreakingDown(p, start, func(run int) error {
		runs++
		if run == 0 {
			return errors.New("singular basis")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if runs != 2 || o.StartInstalled.Value() == 0 {
		t.Fatalf("%d runs after seating %d start columns; want the seated run and one restart",
			runs, o.StartInstalled.Value())
	}
	if got.Status != cold.Status || got.Iterations != cold.Iterations || got.Objective != cold.Objective || !slices.Equal(got.X, cold.X) {
		t.Fatalf("restart answered %+v, a cold solve %+v", got, cold)
	}
	if got.Status != oracle.Status || math.Abs(got.Objective-oracle.Objective) > 1e-9 {
		t.Fatalf("restart answered %v obj %g, dense %v obj %g", got.Status, got.Objective, oracle.Status, oracle.Objective)
	}
	for v := range got.X {
		if math.Abs(got.X[v]-oracle.X[v]) > 1e-9 {
			t.Fatalf("restart x = %v, dense x = %v", got.X, oracle.X)
		}
	}
	if f, s, n := o.SparseFallbacks.Value(), o.Solves.Value(), o.SolveSeconds.Count(); f != 1 || s != 1 || n != 1 {
		t.Fatalf("fallbacks=%d solves=%d solve_seconds observations=%d, want 1 each", f, s, n)
	}
}

// TestUnrecoveredBreakdownIsAnError plants breakdowns no restart can
// mend: in the run from a seated start and in its restart, in a cold
// run, and in a run whose start the guard discarded (so it ran cold).
// Each returns the planted error and no Solution; only the first
// restarts.
func TestUnrecoveredBreakdownIsAnError(t *testing.T) {
	o := lp.NewObs(obs.NewRegistry())
	lp.SetObs(o)
	defer lp.SetObs(lp.Obs{})
	planted := errors.New("singular basis")
	for _, tc := range []struct {
		name     string
		start    []int
		runs     int
		restarts int64
	}{
		{"seated start, then the restart", []int{1, 2}, 2, 1},
		{"cold", nil, 1, 0},
		{"discarded start", []int{-1, 0, 0, 99, 2, 4, 2}, 1, 0},
	} {
		restarts := o.SparseFallbacks.Value()
		runs := 0
		sol, err := new(lp.Solver).SolveBreakingDown(lp.TwoJobs(), tc.start, func(int) error {
			runs++
			return planted
		})
		if sol != nil || !errors.Is(err, planted) {
			t.Errorf("%s: got %+v, error %v; want no Solution and the planted error", tc.name, sol, err)
		}
		if restarts = o.SparseFallbacks.Value() - restarts; runs != tc.runs || restarts != tc.restarts {
			t.Errorf("%s: %d runs and %d restarts, want %d and %d", tc.name, runs, restarts, tc.runs, tc.restarts)
		}
	}
}
