package lp

// Status-path coverage for the revised simplex, both through the
// public pipeline and directly on revised.solve (bypassing presolve, so
// the simplex itself — not a reduction — produces the verdict), plus
// the LU kernel. The cases that also ask the dense oracle are in
// status_test.go.

import (
	"math"
	"math/rand"
	"testing"
)

func solveSparseOrFail(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := SolveSparseFrom(p, nil)
	if err != nil {
		t.Fatalf("SolveSparseFrom: %v", err)
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
		{"pipeline", func() (*Solution, error) { return SolveSparseFrom(p, nil) }},
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
