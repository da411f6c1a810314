package lp

// Status-path coverage for the revised simplex, both through the
// public SolveSparse pipeline and directly on revised.solve (bypassing
// presolve, so the simplex itself — not a reduction — produces the
// verdict), plus the MPS round-trip of presolved problems.

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"coflow/internal/obs"
)

func solveSparseOrFail(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := SolveSparse(p)
	if err != nil {
		t.Fatalf("SolveSparse: %v", err)
	}
	return sol
}

// solveRevised runs the raw revised simplex on p, cold, on fresh state.
func solveRevised(p *Problem) (*Solution, error) {
	var r revised
	status, iters, err := r.solve(p, nil)
	if err != nil {
		return nil, err
	}
	return &Solution{Status: status, X: r.x, Objective: Objective(p, r.x), Iterations: iters}, nil
}

func TestSparseSimple(t *testing.T) {
	// max x0 + x1 (as min of negation) s.t. x0 + x1 ≤ 4, x0 ≤ 3.
	p := NewProblem(2)
	p.SetObjective(0, -1)
	p.SetObjective(1, -1)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, LE, 4)
	p.AddConstraint([]Entry{{0, 1}}, LE, 3)
	sol := solveSparseOrFail(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-(-4)) > 1e-9 {
		t.Fatalf("got %v obj %g, want optimal obj -4", sol.Status, sol.Objective)
	}
}

// requireStatus runs p through the pipeline, the raw revised simplex
// and the dense oracle and requires the same verdict from all three.
func requireStatus(t *testing.T, label string, p *Problem, want Status) {
	t.Helper()
	if sol := solveSparseOrFail(t, p); sol.Status != want {
		t.Fatalf("%s: pipeline status = %v, want %v", label, sol.Status, want)
	}
	rsol, err := solveRevised(p)
	if err != nil {
		t.Fatalf("%s: solveRevised: %v", label, err)
	}
	if rsol.Status != want {
		t.Fatalf("%s: revised status = %v, want %v", label, rsol.Status, want)
	}
	if dense := solveOrFail(t, p); dense.Status != want {
		t.Fatalf("%s: dense status = %v, want %v", label, dense.Status, want)
	}
}

func TestSparseInfeasible(t *testing.T) {
	// Multi-entry rows so presolve cannot shortcut the verdict on its
	// own in every case; pipeline and raw solver must both say so.
	p := NewProblem(2)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, GE, 4)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, LE, 1)
	requireStatus(t, "conflicting rows", p, Infeasible)

	// x0 is a negative-cost column in no row, an open ray — but x1's
	// bounds contradict, and infeasibility outranks the ray.
	q := NewProblem(2)
	q.SetObjective(0, -1)
	q.AddConstraint([]Entry{{1, 1}}, GE, 1)
	q.AddConstraint([]Entry{{1, 1}}, LE, 0)
	requireStatus(t, "open ray beside crossed bounds", q, Infeasible)
}

func TestSparseUnbounded(t *testing.T) {
	// min −x0 − x1 s.t. x0 − x1 ≤ 1: the ray (t, t) is unbounded.
	p := NewProblem(2)
	p.SetObjective(0, -1)
	p.SetObjective(1, -1)
	p.AddConstraint([]Entry{{0, 1}, {1, -1}}, LE, 1)
	requireStatus(t, "ray", p, Unbounded)

	// x0 is a negative-cost column in no row. Presolve leaves columns
	// alone and never rules Unbounded (that needs proof of feasibility),
	// so the simplex finds the ray after the x1 ≥ 1 row is met.
	q := NewProblem(2)
	q.SetObjective(0, -1)
	q.SetObjective(1, 1)
	q.AddConstraint([]Entry{{1, 1}}, GE, 1)
	ps, err := Presolve(q)
	if err != nil {
		t.Fatalf("presolve: %v", err)
	}
	if ps.Decided() {
		t.Fatal("presolve decided an unbounded problem; that verdict belongs to the simplex")
	}
	requireStatus(t, "empty negative-cost column", q, Unbounded)
}

func TestSparseBealeDegenerate(t *testing.T) {
	// Beale's cycling example; the Dantzig-then-Bland contract must
	// terminate at −0.05 like the dense solver.
	p := NewProblem(4)
	p.SetObjective(0, -0.75)
	p.SetObjective(1, 150)
	p.SetObjective(2, -0.02)
	p.SetObjective(3, 6)
	p.AddConstraint([]Entry{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, LE, 0)
	p.AddConstraint([]Entry{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, LE, 0)
	p.AddConstraint([]Entry{{2, 1}}, LE, 1)
	for _, run := range []struct {
		name  string
		solve func() (*Solution, error)
	}{
		{"pipeline", func() (*Solution, error) { return SolveSparse(p) }},
		{"revised", func() (*Solution, error) { return solveRevised(p) }},
	} {
		sol, err := run.solve()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if sol.Status != Optimal {
			t.Fatalf("%s: status = %v, want optimal", run.name, sol.Status)
		}
		if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
			t.Fatalf("%s: objective = %g, want -0.05", run.name, sol.Objective)
		}
	}
}

func TestSparseDegenerateCyclingProne(t *testing.T) {
	// Kuhn's degenerate instance: multiple zero-ratio pivots at the
	// origin; plain Dantzig pricing can cycle without the Bland
	// fallback. Optimal value is -2 at (2, 0, 1).
	p := NewProblem(3)
	p.SetObjective(0, -2)
	p.SetObjective(1, -3)
	p.SetObjective(2, 1)
	p.AddConstraint([]Entry{{0, 1}, {1, 2}, {2, -2}}, LE, 0)
	p.AddConstraint([]Entry{{0, 1}, {1, 4}, {2, -1}}, LE, 1)
	p.AddConstraint([]Entry{{0, -1}, {1, -1}, {2, 1}}, LE, 0)
	dense := solveOrFail(t, p)
	sol := solveSparseOrFail(t, p)
	if sol.Status != dense.Status {
		t.Fatalf("status: sparse %v, dense %v", sol.Status, dense.Status)
	}
	if dense.Status == Optimal && math.Abs(sol.Objective-dense.Objective) > 1e-6 {
		t.Fatalf("objective: sparse %g, dense %g", sol.Objective, dense.Objective)
	}
}

func TestSparseNoConstraints(t *testing.T) {
	// Zero rows: optimal at the origin for c ≥ 0, unbounded otherwise.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	sol := solveSparseOrFail(t, p)
	if sol.Status != Optimal || sol.Objective != 0 {
		t.Fatalf("got %v obj %g, want optimal 0", sol.Status, sol.Objective)
	}
	q := NewProblem(1)
	q.SetObjective(0, -1)
	sol = solveSparseOrFail(t, q)
	if sol.Status != Unbounded {
		t.Fatalf("got %v, want unbounded", sol.Status)
	}
}

func TestSolveWithDispatch(t *testing.T) {
	p := NewProblem(1)
	p.SetObjective(0, -1)
	p.AddConstraint([]Entry{{0, 2}}, LE, 6)
	for _, m := range []Method{MethodDense, MethodSparse} {
		sol, err := SolveWith(p, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if sol.Status != Optimal || math.Abs(sol.Objective-(-3)) > 1e-9 {
			t.Fatalf("%v: got %v obj %g, want optimal -3", m, sol.Status, sol.Objective)
		}
	}
	if _, err := SolveWith(nil, MethodSparse); err == nil {
		t.Fatal("SolveWith(nil) succeeded")
	}
}

// TestSparseFallbackCountedOnce drives the breakdown branch with a
// revised-simplex stage that always fails: the caller gets the dense
// answer, and the metrics read as one sparse solve that fell back, not
// as two solves.
func TestSparseFallbackCountedOnce(t *testing.T) {
	// min -3x - 5y s.t. 3x + 2y <= 18, x + y <= 7, x + 3y <= 15:
	// no singleton rows, so presolve leaves the verdict to the simplex.
	p := NewProblem(2)
	p.SetObjective(0, -3)
	p.SetObjective(1, -5)
	p.AddConstraint([]Entry{{0, 3}, {1, 2}}, LE, 18)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, LE, 7)
	p.AddConstraint([]Entry{{0, 1}, {1, 3}}, LE, 15)
	want := solveOrFail(t, p)

	o := NewObs(obs.NewRegistry())
	SetObs(o)
	defer SetObs(Obs{})
	called := false
	got, err := new(Solver).solve(p, nil, func(*revised, *Problem, []int) (Status, int, error) {
		called = true
		return IterLimit, 0, errors.New("singular basis")
	})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if !called {
		t.Fatal("presolve decided the problem; the fallback branch was not reached")
	}
	if got.Status != want.Status || got.Objective != want.Objective || !slices.Equal(got.X, want.X) {
		t.Fatalf("fallback answer %v obj %g x %v, dense %v obj %g x %v",
			got.Status, got.Objective, got.X, want.Status, want.Objective, want.X)
	}
	if f, s, sp, n := o.SparseFallbacks.Value(), o.Solves.Value(), o.SparseSolves.Value(), o.SolveSeconds.Count(); f != 1 || s != 1 || sp != 1 || n != 1 {
		t.Fatalf("fallbacks=%d solves=%d sparse_solves=%d solve_seconds observations=%d, want 1 each", f, s, sp, n)
	}
}

// TestMPSRoundTripPresolved proves presolved problems survive the MPS
// writer/reader with the same optimum: the reduced problem is pure
// x ≥ 0 standard form (bounds re-emitted as rows), which is exactly
// the subset mps.go speaks.
func TestMPSRoundTripPresolved(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rounds := 0
	for n := 0; n < 1500 && rounds < 25; n++ {
		p := randomProblem(rng)
		ps, err := Presolve(p)
		if err != nil {
			t.Fatalf("instance %d: presolve: %v", n, err)
		}
		if ps.Decided() {
			continue
		}
		red := ps.Reduced()
		before, err := Solve(red)
		if err != nil {
			t.Fatalf("instance %d: solve reduced: %v", n, err)
		}
		if before.Status != Optimal {
			continue
		}
		rounds++
		var buf bytes.Buffer
		if err := WriteMPS(&buf, red, "presolved"); err != nil {
			t.Fatalf("instance %d: write MPS: %v", n, err)
		}
		back, err := ReadMPS(&buf)
		if err != nil {
			t.Fatalf("instance %d: read MPS: %v", n, err)
		}
		after, err := Solve(back)
		if err != nil {
			t.Fatalf("instance %d: solve re-read: %v", n, err)
		}
		if after.Status != Optimal {
			t.Fatalf("instance %d: re-read status = %v, want optimal", n, after.Status)
		}
		if diff := math.Abs(after.Objective - before.Objective); diff > 1e-6*(1+math.Abs(before.Objective)) {
			t.Fatalf("instance %d: MPS round trip moved the optimum: %.12g -> %.12g",
				n, before.Objective, after.Objective)
		}
	}
	if rounds < 8 {
		t.Fatalf("only %d round-trippable instances generated; generator drifted", rounds)
	}
}

// TestSparseLUFactorSolve pins the LU kernel itself on a dense-ish
// deterministic matrix: FTRAN and BTRAN must invert it to fine
// precision, including through a chain of eta updates.
func TestSparseLUFactorSolve(t *testing.T) {
	const m = 12
	rng := rand.New(rand.NewSource(5))
	cols := make([]spCol, m)
	dense := make([][]float64, m) // dense[i][j]
	for i := range dense {
		dense[i] = make([]float64, m)
	}
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			if rng.Float64() < 0.4 || i == j {
				v := rng.NormFloat64()
				if i == j {
					v += 3 // keep it comfortably nonsingular
				}
				cols[j].ind = append(cols[j].ind, i)
				cols[j].val = append(cols[j].val, v)
				dense[i][j] = v
			}
		}
	}
	var blu basisLU
	blu.lu.reset(m)
	identity := make([]int, m)
	for k := range identity {
		identity[k] = k
	}
	if err := blu.refactor(cols, identity); err != nil {
		t.Fatalf("factor: %v", err)
	}
	matvec := func(x []float64) []float64 {
		out := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				out[i] += dense[i][j] * x[j]
			}
		}
		return out
	}
	matvecT := func(x []float64) []float64 {
		out := make([]float64, m)
		for j := 0; j < m; j++ {
			for i := 0; i < m; i++ {
				out[j] += dense[i][j] * x[i]
			}
		}
		return out
	}
	checkInverse := func(label string) {
		t.Helper()
		want := make([]float64, m)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		rhs := append([]float64(nil), matvec(want)...)
		z := make([]float64, m)
		blu.ftran(rhs, z)
		for i := range z {
			if math.Abs(z[i]-want[i]) > 1e-8 {
				t.Fatalf("%s: ftran[%d] = %g, want %g", label, i, z[i], want[i])
			}
		}
		rhsT := append([]float64(nil), matvecT(want)...)
		// btran input is in position coordinates.
		y := make([]float64, m)
		blu.btran(rhsT, y)
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-8 {
				t.Fatalf("%s: btran[%d] = %g, want %g", label, i, y[i], want[i])
			}
		}
	}
	checkInverse("after factor")
	// Replace three columns through eta updates and re-verify.
	for rep := 0; rep < 3; rep++ {
		r := rng.Intn(m)
		newCol := spCol{}
		for i := 0; i < m; i++ {
			if rng.Float64() < 0.5 || i == r {
				v := rng.NormFloat64()
				if i == r {
					v += 3
				}
				newCol.ind = append(newCol.ind, i)
				newCol.val = append(newCol.val, v)
			}
		}
		rhs := make([]float64, m)
		for i, row := range newCol.ind {
			rhs[row] = newCol.val[i]
		}
		w := make([]float64, m)
		blu.ftran(rhs, w)
		if err := blu.push(r, w); err != nil {
			t.Fatalf("push: %v", err)
		}
		cols[r] = newCol
		for i := 0; i < m; i++ {
			dense[i][r] = 0
		}
		for i, row := range newCol.ind {
			dense[row][r] = newCol.val[i]
		}
		checkInverse("after eta")
	}
}
