package lp

import (
	"math"
	"math/rand"
	"testing"
)

func solveOrFail(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestSimpleMaximization(t *testing.T) {
	// max Σ x_j s.t. x_{2r}+x_{2r+1} <= 1 for each row r (as min -Σ x_j):
	// every disjoint block saturates its row, optimum -rows. The 700-row
	// case is a large tableau (700 × 2101 cells ≈ 1.5M).
	for _, rows := range []int{1, 700} {
		p := NewProblem(2 * rows)
		for r := 0; r < rows; r++ {
			p.SetObjective(2*r, -1)
			p.SetObjective(2*r+1, -1)
			p.AddConstraint([]Entry{{2 * r, 1}, {2*r + 1, 1}}, LE, 1)
		}
		sol := solveOrFail(t, p)
		if sol.Status != Optimal {
			t.Fatalf("rows=%d: status = %v", rows, sol.Status)
		}
		if want := -float64(rows); math.Abs(sol.Objective-want) > 1e-9*float64(rows) {
			t.Fatalf("rows=%d: objective = %g, want %g", rows, sol.Objective, want)
		}
		if err := CheckFeasible(p, sol.X, 1e-9); err != nil {
			t.Fatalf("rows=%d: %v", rows, err)
		}
	}
}

func TestTwoConstraintVertex(t *testing.T) {
	// min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
	// Classic: optimum at (2, 6) with value -36.
	p := NewProblem(2)
	p.SetObjective(0, -3)
	p.SetObjective(1, -5)
	p.AddConstraint([]Entry{{0, 1}}, LE, 4)
	p.AddConstraint([]Entry{{1, 2}}, LE, 12)
	p.AddConstraint([]Entry{{0, 3}, {1, 2}}, LE, 18)
	sol := solveOrFail(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-36)) > 1e-8 {
		t.Fatalf("objective = %g, want -36", sol.Objective)
	}
	if math.Abs(sol.X[0]-2) > 1e-8 || math.Abs(sol.X[1]-6) > 1e-8 {
		t.Fatalf("x = %v, want (2,6)", sol.X)
	}
}

func TestEqualityConstraints(t *testing.T) {
	// min x + y s.t. x + y = 2, x - y = 0 → x = y = 1.
	p := NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, EQ, 2)
	p.AddConstraint([]Entry{{0, 1}, {1, -1}}, EQ, 0)
	sol := solveOrFail(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.X[0]-1) > 1e-8 || math.Abs(sol.X[1]-1) > 1e-8 {
		t.Fatalf("x = %v, want (1,1)", sol.X)
	}
}

func TestGEConstraint(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x >= 1 → (3,1)? No: cost favors x
	// (2 < 3), so x = 4, y = 0 → obj 8. The x >= 1 row is slack.
	p := NewProblem(2)
	p.SetObjective(0, 2)
	p.SetObjective(1, 3)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, GE, 4)
	p.AddConstraint([]Entry{{0, 1}}, GE, 1)
	sol := solveOrFail(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-8) > 1e-8 {
		t.Fatalf("objective = %g, want 8", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= -1 with x >= 0 is infeasible.
	p := NewProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint([]Entry{{0, 1}}, LE, -1)
	sol := solveOrFail(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleConflicting(t *testing.T) {
	p := NewProblem(1)
	p.AddConstraint([]Entry{{0, 1}}, GE, 5)
	p.AddConstraint([]Entry{{0, 1}}, LE, 3)
	sol := solveOrFail(t, p)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x with x only bounded below.
	p := NewProblem(1)
	p.SetObjective(0, -1)
	p.AddConstraint([]Entry{{0, 1}}, GE, 1)
	sol := solveOrFail(t, p)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x <= -2 means x >= 2; min x → 2.
	p := NewProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint([]Entry{{0, -1}}, LE, -2)
	sol := solveOrFail(t, p)
	if sol.Status != Optimal || math.Abs(sol.Objective-2) > 1e-8 {
		t.Fatalf("status=%v obj=%g, want optimal 2", sol.Status, sol.Objective)
	}
}

func TestDuplicateEntriesAccumulate(t *testing.T) {
	// x + x <= 4 → x <= 2; min -x → -2.
	p := NewProblem(1)
	p.SetObjective(0, -1)
	p.AddConstraint([]Entry{{0, 1}, {0, 1}}, LE, 4)
	sol := solveOrFail(t, p)
	if math.Abs(sol.Objective-(-2)) > 1e-8 {
		t.Fatalf("objective = %g, want -2", sol.Objective)
	}
}

func TestDegenerate(t *testing.T) {
	// Beale's classic cycling example (resolved by anti-cycling).
	// min -0.75x1 + 150x2 - 0.02x3 + 6x4
	// s.t. 0.25x1 - 60x2 - 0.04x3 + 9x4 <= 0
	//      0.5x1 - 90x2 - 0.02x3 + 3x4 <= 0
	//      x3 <= 1
	// Optimal value -0.05.
	p := NewProblem(4)
	p.SetObjective(0, -0.75)
	p.SetObjective(1, 150)
	p.SetObjective(2, -0.02)
	p.SetObjective(3, 6)
	p.AddConstraint([]Entry{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, LE, 0)
	p.AddConstraint([]Entry{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, LE, 0)
	p.AddConstraint([]Entry{{2, 1}}, LE, 1)
	sol := solveOrFail(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
		t.Fatalf("objective = %g, want -0.05", sol.Objective)
	}
}

func TestConvexityRowsLikeLPModel(t *testing.T) {
	// Mimics the structure of the interval-indexed LP: convexity rows
	// Σ_l x_kl = 1 per "coflow" plus cumulative capacity rows.
	// Two coflows, two intervals with capacities 2 and 4; each coflow
	// consumes 2 units; cost = left endpoint 0 for interval 1, 1 for
	// interval 2, weight 1. Only one coflow fits interval 1.
	p := NewProblem(4) // x(k,l) = k*2+l
	p.SetObjective(1, 1)
	p.SetObjective(3, 1)
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, EQ, 1)
	p.AddConstraint([]Entry{{2, 1}, {3, 1}}, EQ, 1)
	p.AddConstraint([]Entry{{0, 2}, {2, 2}}, LE, 2)                 // interval 1 capacity
	p.AddConstraint([]Entry{{0, 2}, {1, 2}, {2, 2}, {3, 2}}, LE, 4) // cumulative
	sol := solveOrFail(t, p)
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if math.Abs(sol.Objective-1) > 1e-8 {
		t.Fatalf("objective = %g, want 1", sol.Objective)
	}
	if err := CheckFeasible(p, sol.X, 1e-8); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFeasibleRejects(t *testing.T) {
	p := NewProblem(1)
	p.AddConstraint([]Entry{{0, 1}}, LE, 1)
	if err := CheckFeasible(p, []float64{2}, 1e-9); err == nil {
		t.Fatal("violation not caught")
	}
	if err := CheckFeasible(p, []float64{-1}, 1e-9); err == nil {
		t.Fatal("negative variable not caught")
	}
	if err := CheckFeasible(p, []float64{0, 0}, 1e-9); err == nil {
		t.Fatal("wrong arity not caught")
	}
}

func TestObjectiveEval(t *testing.T) {
	p := NewProblem(2)
	p.SetObjective(0, 2)
	p.SetObjective(1, -3)
	if got := Objective(p, []float64{1, 2}); math.Abs(got-(-4)) > 1e-12 {
		t.Fatalf("Objective = %g, want -4", got)
	}
}

func TestVariableRangePanics(t *testing.T) {
	p := NewProblem(1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range variable accepted")
		}
	}()
	p.AddConstraint([]Entry{{3, 1}}, LE, 1)
}

func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || EQ.String() != "=" || GE.String() != ">=" {
		t.Fatal("Sense.String broken")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" {
		t.Fatal("Status.String broken")
	}
}

// --- brute-force cross-check ---------------------------------------

// gaussSolve solves the n×n system Ax=b, returning false if singular.
func gaussSolve(a [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64{}, a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		piv := -1
		best := 1e-9
		for r := col; r < n; r++ {
			if v := math.Abs(m[r][col]); v > best {
				piv, best = r, v
			}
		}
		if piv < 0 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		inv := 1 / m[col][col]
		for k := col; k <= n; k++ {
			m[col][k] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for k := col; k <= n; k++ {
				m[r][k] -= f * m[col][k]
			}
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = m[i][n]
	}
	return x, true
}

// bruteForceLP enumerates all vertices of {x >= 0, rows} for an
// all-LE problem and returns the best objective, or NaN if infeasible.
func bruteForceLP(nVars int, obj []float64, rows [][]float64, rhs []float64) float64 {
	// Candidate tight sets: choose nVars hyperplanes from the rows
	// plus the nonnegativity bounds.
	total := len(rows) + nVars
	best := math.NaN()
	idx := make([]int, nVars)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == nVars {
			a := make([][]float64, nVars)
			b := make([]float64, nVars)
			for i, h := range idx {
				if h < len(rows) {
					a[i] = rows[h]
					b[i] = rhs[h]
				} else {
					coef := make([]float64, nVars)
					coef[h-len(rows)] = 1
					a[i] = coef
					b[i] = 0
				}
			}
			x, ok := gaussSolve(a, b)
			if !ok {
				return
			}
			for _, v := range x {
				if v < -1e-7 {
					return
				}
			}
			for r, row := range rows {
				var lhs float64
				for j, c := range row {
					lhs += c * x[j]
				}
				if lhs > rhs[r]+1e-7 {
					return
				}
				_ = r
			}
			var o float64
			for j, c := range obj {
				o += c * x[j]
			}
			if math.IsNaN(best) || o < best {
				best = o
			}
			return
		}
		for h := start; h < total; h++ {
			idx[k] = h
			rec(h+1, k+1)
		}
	}
	rec(0, 0)
	return best
}

func TestSimplexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	for trial := 0; trial < 200; trial++ {
		nVars := 1 + rng.Intn(3)
		nRows := 1 + rng.Intn(4)
		obj := make([]float64, nVars)
		for j := range obj {
			obj[j] = float64(rng.Intn(11) - 5)
		}
		rows := make([][]float64, nRows)
		rhs := make([]float64, nRows)
		for r := range rows {
			rows[r] = make([]float64, nVars)
			for j := range rows[r] {
				rows[r][j] = float64(rng.Intn(7) - 2)
			}
			rhs[r] = float64(rng.Intn(10))
		}
		// Bound the region so the LP cannot be unbounded.
		bound := make([]float64, nVars)
		for j := range bound {
			bound[j] = 1
		}
		rows = append(rows, bound)
		rhs = append(rhs, float64(5+rng.Intn(10)))

		p := NewProblem(nVars)
		for j, c := range obj {
			p.SetObjective(j, c)
		}
		for r, row := range rows {
			var es []Entry
			for j, c := range row {
				if c != 0 {
					es = append(es, Entry{j, c})
				}
			}
			p.AddConstraint(es, LE, rhs[r])
		}
		sol := solveOrFail(t, p)
		want := bruteForceLP(nVars, obj, rows, rhs)
		if math.IsNaN(want) {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: brute force infeasible, simplex %v", trial, sol.Status)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: simplex %v, brute force %g", trial, sol.Status, want)
		}
		if math.Abs(sol.Objective-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("trial %d: simplex %g, brute force %g", trial, sol.Objective, want)
		}
		if err := CheckFeasible(p, sol.X, 1e-6); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestAccessors(t *testing.T) {
	p := NewProblem(3)
	p.AddConstraint([]Entry{{0, 1}}, LE, 1)
	if p.NumVars() != 3 || p.NumConstraints() != 1 {
		t.Fatalf("accessors: %d vars %d rows", p.NumVars(), p.NumConstraints())
	}
	if Sense(99).String() == "" || Status(99).String() == "" || Method(99).String() == "" {
		t.Fatal("unknown enum Strings empty")
	}
	if MethodDense.String() != "dense" || MethodSparse.String() != "sparse" {
		t.Fatalf("Method.String(): %v/%v", MethodDense, MethodSparse)
	}
}

func TestSolveNilProblem(t *testing.T) {
	if _, err := Solve(nil); err == nil {
		t.Fatal("nil problem accepted")
	}
}

func TestNewProblemPanicsOnZeroVars(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewProblem(0) did not panic")
		}
	}()
	NewProblem(0)
}
