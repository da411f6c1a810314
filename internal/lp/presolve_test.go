package lp

// Presolve reduction tests. The load-bearing properties: postsolve
// lifts a solution of the reduced problem to one that passes
// CheckFeasible on the ORIGINAL problem with the same objective, and
// the reduced problem keeps every column of the original in place.
// Each table case additionally pins which reduction fired via the
// stats counters and, where the shape matters, the reduced rows.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// presolveAndSolve runs the full sparse pipeline by hand — presolve,
// dense-solve the reduced problem, postsolve — so tests can inspect
// each stage.
func presolveAndSolve(t *testing.T, p *Problem) (*Presolved, Status, []float64) {
	t.Helper()
	ps, err := Presolve(p)
	if err != nil {
		t.Fatalf("presolve: %v", err)
	}
	if ps.Decided() {
		return ps, Infeasible, nil
	}
	sol, err := Solve(ps.Reduced())
	if err != nil {
		t.Fatalf("solve reduced: %v", err)
	}
	if sol.Status != Optimal {
		return ps, sol.Status, nil
	}
	x, err := ps.Postsolve(sol.X)
	if err != nil {
		t.Fatalf("postsolve: %v", err)
	}
	return ps, Optimal, x
}

// checkAgainstOriginal asserts the postsolved x is feasible on the
// original problem and matches the dense oracle's optimal objective.
func checkAgainstOriginal(t *testing.T, p *Problem, x []float64) {
	t.Helper()
	if err := CheckFeasible(p, x, 1e-6); err != nil {
		t.Fatalf("postsolved solution infeasible on original: %v", err)
	}
	oracle, err := Solve(p)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if oracle.Status != Optimal {
		t.Fatalf("oracle status = %v, want optimal", oracle.Status)
	}
	got := Objective(p, x)
	if diff := math.Abs(got - oracle.Objective); diff > 1e-6*(1+math.Abs(oracle.Objective)) {
		t.Fatalf("objective after postsolve = %.12g, oracle = %.12g", got, oracle.Objective)
	}
}

// wantReduced asserts the exact shape of the reduced problem: every
// original column, the given shifts, and exactly the given rows.
func wantReduced(t *testing.T, ps *Presolved, shift []float64, rows ...row) {
	t.Helper()
	red := ps.Reduced()
	if red == nil {
		t.Fatal("no reduced problem")
	}
	if red.NumVars() != len(shift) {
		t.Fatalf("reduced problem has %d vars, want %d", red.NumVars(), len(shift))
	}
	got, err := ps.Postsolve(make([]float64, len(shift)))
	if err != nil {
		t.Fatalf("postsolve: %v", err)
	}
	if !slices.Equal(got, shift) {
		t.Errorf("shift = %v, want %v", got, shift)
	}
	if !reflect.DeepEqual(red.rows, rows) {
		t.Errorf("reduced rows = %+v, want %+v", red.rows, rows)
	}
}

func TestPresolveReductions(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Problem
		// wantStatus is the expected final verdict of the pipeline.
		wantStatus Status
		// fired asserts on the presolve run: its stats and, where the
		// case pins it, the shape of the reduced problem.
		fired func(t *testing.T, ps *Presolved)
	}{
		{
			name: "empty row redundant",
			build: func() *Problem {
				p := NewProblem(1)
				p.SetObjective(0, 1)
				p.AddConstraint(nil, LE, 5)
				p.AddConstraint([]Entry{{0, 1}}, GE, 2)
				return p
			},
			wantStatus: Optimal,
			fired: func(t *testing.T, ps *Presolved) {
				s := ps.Stats()
				if s.EmptyRows == 0 {
					t.Errorf("EmptyRows = 0, want > 0 (stats %+v)", s)
				}
			},
		},
		{
			name: "empty row infeasible",
			build: func() *Problem {
				p := NewProblem(1)
				p.AddConstraint(nil, GE, 3)
				return p
			},
			wantStatus: Infeasible,
		},
		{
			name: "empty row infeasible via negative LE",
			build: func() *Problem {
				p := NewProblem(1)
				p.AddConstraint(nil, LE, -2)
				return p
			},
			wantStatus: Infeasible,
		},
		{
			name: "singleton row becomes bound",
			build: func() *Problem {
				// min -x0 s.t. 2·x0 ≤ 6 → x0 = 3.
				p := NewProblem(2)
				p.SetObjective(0, -1)
				p.SetObjective(1, 1)
				p.AddConstraint([]Entry{{0, 2}}, LE, 6)
				p.AddConstraint([]Entry{{0, 1}, {1, 1}}, GE, 1)
				return p
			},
			wantStatus: Optimal,
			fired: func(t *testing.T, ps *Presolved) {
				s := ps.Stats()
				if s.SingletonRows == 0 {
					t.Errorf("SingletonRows = 0, want > 0 (stats %+v)", s)
				}
			},
		},
		{
			name: "singleton equality fixes variable",
			build: func() *Problem {
				// 3·x0 = 6 pins x0 = 2: shifted by 2 and capped by x0′ ≤ 0,
				// the column stays and the other row is restated.
				p := NewProblem(2)
				p.SetObjective(1, 1)
				p.AddConstraint([]Entry{{0, 3}}, EQ, 6)
				p.AddConstraint([]Entry{{0, 1}, {1, 1}}, GE, 5)
				return p
			},
			wantStatus: Optimal,
			fired: func(t *testing.T, ps *Presolved) {
				if s := ps.Stats(); s.SingletonRows != 1 {
					t.Errorf("SingletonRows = %d, want 1 (stats %+v)", s.SingletonRows, s)
				}
				wantReduced(t, ps, []float64{2, 0},
					row{[]Entry{{0, 1}, {1, 1}}, GE, 3},
					row{[]Entry{{0, 1}}, LE, 0})
			},
		},
		{
			name: "contradictory singleton bounds infeasible",
			build: func() *Problem {
				p := NewProblem(1)
				p.AddConstraint([]Entry{{0, 1}}, GE, 4)
				p.AddConstraint([]Entry{{0, 1}}, LE, 1)
				return p
			},
			wantStatus: Infeasible,
		},
		{
			name: "bound tightening detects infeasibility",
			build: func() *Problem {
				// x0 + x1 ≤ 1 caps both at 1, so x0 + 2·x1 ≥ 4 cannot be
				// met. No singleton row says so: presolve passes the rows
				// on and the simplex delivers the verdict.
				p := NewProblem(2)
				p.AddConstraint([]Entry{{0, 1}, {1, 1}}, LE, 1)
				p.AddConstraint([]Entry{{0, 1}, {1, 2}}, GE, 4)
				return p
			},
			wantStatus: Infeasible,
		},
		{
			name: "redundant row dropped under enforced bounds",
			build: func() *Problem {
				// x0 ≤ 2 and x1 ≤ 3 are enforced singleton bounds, so
				// x0 + x1 ≤ 100 can never bind and is dropped.
				p := NewProblem(2)
				p.SetObjective(0, -1)
				p.SetObjective(1, -1)
				p.AddConstraint([]Entry{{0, 1}}, LE, 2)
				p.AddConstraint([]Entry{{1, 1}}, LE, 3)
				p.AddConstraint([]Entry{{0, 1}, {1, 1}}, LE, 100)
				return p
			},
			wantStatus: Optimal,
			fired: func(t *testing.T, ps *Presolved) {
				s := ps.Stats()
				if s.RedundantRows == 0 {
					t.Errorf("RedundantRows = 0, want > 0 (stats %+v)", s)
				}
			},
		},
		{
			name: "all presolved away",
			build: func() *Problem {
				// Both variables pinned by equalities: no original row is
				// left, only the two x′ ≤ 0 caps.
				p := NewProblem(2)
				p.SetObjective(0, 3)
				p.SetObjective(1, -2)
				p.AddConstraint([]Entry{{0, 1}}, EQ, 4)
				p.AddConstraint([]Entry{{1, 2}}, EQ, 6)
				return p
			},
			wantStatus: Optimal,
			fired: func(t *testing.T, ps *Presolved) {
				if s := ps.Stats(); s.SingletonRows != 2 {
					t.Errorf("SingletonRows = %d, want 2 (stats %+v)", s.SingletonRows, s)
				}
				wantReduced(t, ps, []float64{4, 3},
					row{[]Entry{{0, 1}}, LE, 0},
					row{[]Entry{{1, 1}}, LE, 0})
			},
		},
		{
			name: "no rows at all",
			build: func() *Problem {
				// Nothing to reduce: the reduced problem is the original,
				// three columns and zero rows, and the simplex puts x at 0.
				p := NewProblem(3)
				p.SetObjective(0, 1)
				p.SetObjective(2, 2)
				return p
			},
			wantStatus: Optimal,
			fired: func(t *testing.T, ps *Presolved) {
				if s := ps.Stats(); s.Total() != 0 {
					t.Errorf("Total = %d, want 0 (stats %+v)", s.Total(), s)
				}
				wantReduced(t, ps, []float64{0, 0, 0})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build()
			ps, status, x := presolveAndSolve(t, p)
			if status != tc.wantStatus {
				t.Fatalf("status = %v, want %v (stats %+v)", status, tc.wantStatus, ps.Stats())
			}
			if tc.fired != nil {
				tc.fired(t, ps)
			}
			if status == Optimal {
				checkAgainstOriginal(t, p, x)
			} else {
				// The oracle must agree the problem has no optimum.
				oracle, err := Solve(p)
				if err != nil {
					t.Fatalf("oracle: %v", err)
				}
				if oracle.Status != status {
					t.Fatalf("oracle status = %v, presolve pipeline = %v", oracle.Status, status)
				}
			}
		})
	}
}

// TestPresolveKeepsColumns pins the column-identity invariant: the
// reduced problem has the original's variables in the original order,
// and Postsolve moves each one by a constant. The hand-written
// problems are the shapes a column reduction would take a variable
// out of; the random ones are TestPresolvePostsolveProperty's.
func TestPresolveKeepsColumns(t *testing.T) {
	type named struct {
		name string
		p    *Problem
	}
	var problems []named

	// 3·x0 = 6 fixes x0.
	p := NewProblem(2)
	p.SetObjective(1, 1)
	p.AddConstraint([]Entry{{0, 3}}, EQ, 6)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, GE, 5)
	problems = append(problems, named{"singleton equality", p})

	// x0 and x2 appear in no row.
	p = NewProblem(3)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.SetObjective(2, 2)
	p.AddConstraint([]Entry{{1, 1}}, GE, 1)
	problems = append(problems, named{"empty column", p})

	// x0 has zero cost and appears only in the first GE row with a
	// positive coefficient, so it could absorb any residual.
	p = NewProblem(3)
	p.SetObjective(1, 2)
	p.SetObjective(2, 1)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, GE, 2)
	p.AddConstraint([]Entry{{1, 1}, {2, 1}}, GE, 3)
	problems = append(problems, named{"free column singleton", p})

	// x0 appears only in x0 + x1 + x2 = 10, and x1 ≤ 2, x2 ≤ 3 keep the
	// value the row gives it inside its bounds.
	p = NewProblem(3)
	p.SetObjective(0, 1)
	p.SetObjective(1, -1)
	p.SetObjective(2, 2)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}, {2, 1}}, EQ, 10)
	p.AddConstraint([]Entry{{1, 1}}, LE, 2)
	p.AddConstraint([]Entry{{2, 1}}, LE, 3)
	problems = append(problems, named{"free column singleton in an equality", p})

	// x0 + x1 ≤ 0 with x ≥ 0 forces x0 = x1 = 0.
	p = NewProblem(3)
	p.SetObjective(0, -5)
	p.SetObjective(1, -5)
	p.SetObjective(2, 1)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, LE, 0)
	p.AddConstraint([]Entry{{0, 1}, {2, 1}}, GE, 2)
	problems = append(problems, named{"forcing row", p})

	handWritten := len(problems)
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 300; n++ {
		problems = append(problems, named{fmt.Sprintf("random %d", n), randomProblem(rng)})
	}

	for i, tc := range problems {
		ps, err := Presolve(tc.p)
		if err != nil {
			t.Fatalf("%s: presolve: %v", tc.name, err)
		}
		if ps.Decided() {
			if i < handWritten {
				t.Fatalf("%s: presolve decided a feasible problem", tc.name)
			}
			continue // a random problem may be infeasible
		}
		nv := tc.p.NumVars()
		if got := ps.Reduced().NumVars(); got != nv {
			t.Fatalf("%s: reduced problem has %d vars, original %d", tc.name, got, nv)
		}
		shift, err := ps.Postsolve(make([]float64, nv))
		if err != nil {
			t.Fatalf("%s: postsolve: %v", tc.name, err)
		}
		for trial := 0; trial < 4; trial++ {
			x := make([]float64, nv)
			for v := range x {
				x[v] = float64(rng.Intn(41)) / 4
			}
			lifted, err := ps.Postsolve(x)
			if err != nil {
				t.Fatalf("%s: postsolve: %v", tc.name, err)
			}
			for v := range x {
				if d := lifted[v] - x[v]; math.Abs(d-shift[v]) > 1e-12 {
					t.Fatalf("%s: Postsolve moved x%d by %g at %g, by %g at 0", tc.name, v, d, x[v], shift[v])
				}
			}
		}
		if i < handWritten {
			// The column stays, and the optimum is still the oracle's.
			_, status, x := presolveAndSolve(t, tc.p)
			if status != Optimal {
				t.Fatalf("%s: status = %v, want optimal", tc.name, status)
			}
			checkAgainstOriginal(t, tc.p, x)
		}
	}
}

// TestPresolvePostsolveProperty is the randomized form of the
// per-reduction contract: on seeded random problems, whatever chain of
// reductions fires, the postsolved solution is feasible on the
// original problem with the oracle's objective.
func TestPresolvePostsolveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 300; n++ {
		p := randomProblem(rng)
		oracle, err := Solve(p)
		if err != nil {
			t.Fatalf("instance %d: oracle: %v", n, err)
		}
		ps, status, x := presolveAndSolve(t, p)
		if oracle.Status == IterLimit || status == IterLimit {
			continue
		}
		if status != oracle.Status {
			t.Fatalf("instance %d: pipeline status %v, oracle %v (stats %+v)",
				n, status, oracle.Status, ps.Stats())
		}
		if status != Optimal {
			continue
		}
		if err := CheckFeasible(p, x, 1e-5); err != nil {
			t.Fatalf("instance %d: postsolved solution infeasible: %v", n, err)
		}
		got := Objective(p, x)
		if diff := math.Abs(got - oracle.Objective); diff > 1e-6*(1+math.Abs(oracle.Objective)) {
			t.Fatalf("instance %d: objective %.12g, oracle %.12g", n, got, oracle.Objective)
		}
	}
}

// TestPresolveStatsTotal keeps the aggregate helper honest.
func TestPresolveStatsTotal(t *testing.T) {
	s := PresolveStats{EmptyRows: 1, SingletonRows: 2, RedundantRows: 3, Passes: 9}
	if got := s.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6 (rows removed; passes excluded)", got)
	}
}

// TestPresolveRejectsBadInput mirrors Solve's ErrBadProblem contract.
func TestPresolveRejectsBadInput(t *testing.T) {
	if _, err := Presolve(nil); err == nil {
		t.Fatal("Presolve(nil) succeeded")
	}
}
