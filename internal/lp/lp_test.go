package lp_test

// The status contract on hand-made problems. Every case runs through
// both solvers: the production pipeline, cold, and the dense oracle.

import (
	"math"
	"math/rand"
	"testing"

	"coflow/internal/lp"
	"coflow/internal/lp/dense"
)

// methods are the two solvers each case runs through.
var methods = []struct {
	name  string
	solve lp.Method
}{
	{"sparse", lp.MethodSparse},
	{"dense", dense.Solve},
}

// solveEach solves p cold with each of methods and hands check the
// solver's name and its answer.
func solveEach(t *testing.T, p *lp.Problem, check func(m string, sol *lp.Solution)) {
	t.Helper()
	for _, m := range methods {
		sol, err := lp.SolveWith(p, m.solve)
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		check(m.name, sol)
	}
}

func TestSimpleMaximization(t *testing.T) {
	// max Σ x_j s.t. x_{2r}+x_{2r+1} <= 1 for each row r (as min -Σ x_j):
	// every disjoint block saturates its row, optimum -rows. The 700-row
	// case is a large tableau (700 × 2101 cells ≈ 1.5M).
	for _, rows := range []int{1, 700} {
		p := lp.NewProblem(2 * rows)
		for r := 0; r < rows; r++ {
			p.SetObjective(2*r, -1)
			p.SetObjective(2*r+1, -1)
			p.AddConstraint([]lp.Entry{{2 * r, 1}, {2*r + 1, 1}}, lp.LE, 1)
		}
		solveEach(t, p, func(m string, sol *lp.Solution) {
			if sol.Status != lp.Optimal {
				t.Fatalf("%s: rows=%d: status = %v", m, rows, sol.Status)
			}
			if want := -float64(rows); math.Abs(sol.Objective-want) > 1e-9*float64(rows) {
				t.Fatalf("%s: rows=%d: objective = %g, want %g", m, rows, sol.Objective, want)
			}
			if err := lp.CheckFeasible(p, sol.X, 1e-9); err != nil {
				t.Fatalf("%s: rows=%d: %v", m, rows, err)
			}
		})
	}
}

func TestTwoConstraintVertex(t *testing.T) {
	// min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18.
	// Classic: optimum at (2, 6) with value -36.
	p := lp.NewProblem(2)
	p.SetObjective(0, -3)
	p.SetObjective(1, -5)
	p.AddConstraint([]lp.Entry{{0, 1}}, lp.LE, 4)
	p.AddConstraint([]lp.Entry{{1, 2}}, lp.LE, 12)
	p.AddConstraint([]lp.Entry{{0, 3}, {1, 2}}, lp.LE, 18)
	solveEach(t, p, func(m string, sol *lp.Solution) {
		if sol.Status != lp.Optimal {
			t.Fatalf("%s: status = %v", m, sol.Status)
		}
		if math.Abs(sol.Objective-(-36)) > 1e-8 {
			t.Fatalf("%s: objective = %g, want -36", m, sol.Objective)
		}
		if math.Abs(sol.X[0]-2) > 1e-8 || math.Abs(sol.X[1]-6) > 1e-8 {
			t.Fatalf("%s: x = %v, want (2,6)", m, sol.X)
		}
	})
}

func TestEqualityConstraints(t *testing.T) {
	// min x + y s.t. x + y = 2, x - y = 0 → x = y = 1.
	p := lp.NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.AddConstraint([]lp.Entry{{0, 1}, {1, 1}}, lp.EQ, 2)
	p.AddConstraint([]lp.Entry{{0, 1}, {1, -1}}, lp.EQ, 0)
	solveEach(t, p, func(m string, sol *lp.Solution) {
		if sol.Status != lp.Optimal {
			t.Fatalf("%s: status = %v", m, sol.Status)
		}
		if math.Abs(sol.X[0]-1) > 1e-8 || math.Abs(sol.X[1]-1) > 1e-8 {
			t.Fatalf("%s: x = %v, want (1,1)", m, sol.X)
		}
	})
}

func TestGEConstraint(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 4, x >= 1 → (3,1)? No: cost favors x
	// (2 < 3), so x = 4, y = 0 → obj 8. The x >= 1 row is slack.
	p := lp.NewProblem(2)
	p.SetObjective(0, 2)
	p.SetObjective(1, 3)
	p.AddConstraint([]lp.Entry{{0, 1}, {1, 1}}, lp.GE, 4)
	p.AddConstraint([]lp.Entry{{0, 1}}, lp.GE, 1)
	solveEach(t, p, func(m string, sol *lp.Solution) {
		if sol.Status != lp.Optimal {
			t.Fatalf("%s: status = %v", m, sol.Status)
		}
		if math.Abs(sol.Objective-8) > 1e-8 {
			t.Fatalf("%s: objective = %g, want 8", m, sol.Objective)
		}
	})
}

func TestInfeasible(t *testing.T) {
	// x <= -1 with x >= 0 is infeasible.
	p := lp.NewProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint([]lp.Entry{{0, 1}}, lp.LE, -1)
	solveEach(t, p, func(m string, sol *lp.Solution) {
		if sol.Status != lp.Infeasible {
			t.Fatalf("%s: status = %v, want infeasible", m, sol.Status)
		}
	})
}

func TestInfeasibleConflicting(t *testing.T) {
	p := lp.NewProblem(1)
	p.AddConstraint([]lp.Entry{{0, 1}}, lp.GE, 5)
	p.AddConstraint([]lp.Entry{{0, 1}}, lp.LE, 3)
	solveEach(t, p, func(m string, sol *lp.Solution) {
		if sol.Status != lp.Infeasible {
			t.Fatalf("%s: status = %v, want infeasible", m, sol.Status)
		}
	})
}

func TestUnbounded(t *testing.T) {
	// min -x with x only bounded below.
	p := lp.NewProblem(1)
	p.SetObjective(0, -1)
	p.AddConstraint([]lp.Entry{{0, 1}}, lp.GE, 1)
	solveEach(t, p, func(m string, sol *lp.Solution) {
		if sol.Status != lp.Unbounded {
			t.Fatalf("%s: status = %v, want unbounded", m, sol.Status)
		}
	})
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x <= -2 means x >= 2; min x → 2.
	p := lp.NewProblem(1)
	p.SetObjective(0, 1)
	p.AddConstraint([]lp.Entry{{0, -1}}, lp.LE, -2)
	solveEach(t, p, func(m string, sol *lp.Solution) {
		if sol.Status != lp.Optimal || math.Abs(sol.Objective-2) > 1e-8 {
			t.Fatalf("%s: status=%v obj=%g, want optimal 2", m, sol.Status, sol.Objective)
		}
	})
}

func TestDuplicateEntriesAccumulate(t *testing.T) {
	// x + x <= 4 → x <= 2; min -x → -2.
	p := lp.NewProblem(1)
	p.SetObjective(0, -1)
	p.AddConstraint([]lp.Entry{{0, 1}, {0, 1}}, lp.LE, 4)
	solveEach(t, p, func(m string, sol *lp.Solution) {
		if math.Abs(sol.Objective-(-2)) > 1e-8 {
			t.Fatalf("%s: objective = %g, want -2", m, sol.Objective)
		}
	})
}

func TestDegenerate(t *testing.T) {
	// Beale's classic cycling example (resolved by anti-cycling).
	// min -0.75x1 + 150x2 - 0.02x3 + 6x4
	// s.t. 0.25x1 - 60x2 - 0.04x3 + 9x4 <= 0
	//      0.5x1 - 90x2 - 0.02x3 + 3x4 <= 0
	//      x3 <= 1
	// Optimal value -0.05.
	p := lp.NewProblem(4)
	p.SetObjective(0, -0.75)
	p.SetObjective(1, 150)
	p.SetObjective(2, -0.02)
	p.SetObjective(3, 6)
	p.AddConstraint([]lp.Entry{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, lp.LE, 0)
	p.AddConstraint([]lp.Entry{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, lp.LE, 0)
	p.AddConstraint([]lp.Entry{{2, 1}}, lp.LE, 1)
	solveEach(t, p, func(m string, sol *lp.Solution) {
		if sol.Status != lp.Optimal {
			t.Fatalf("%s: status = %v", m, sol.Status)
		}
		if math.Abs(sol.Objective-(-0.05)) > 1e-6 {
			t.Fatalf("%s: objective = %g, want -0.05", m, sol.Objective)
		}
	})
}

func TestConvexityRowsLikeLPModel(t *testing.T) {
	// Mimics the structure of the interval-indexed LP: convexity rows
	// Σ_l x_kl = 1 per "coflow" plus cumulative capacity rows.
	// Two coflows, two intervals with capacities 2 and 4; each coflow
	// consumes 2 units; cost = left endpoint 0 for interval 1, 1 for
	// interval 2, weight 1. Only one coflow fits interval 1.
	p := lp.NewProblem(4) // x(k,l) = k*2+l
	p.SetObjective(1, 1)
	p.SetObjective(3, 1)
	p.AddConstraint([]lp.Entry{{0, 1}, {1, 1}}, lp.EQ, 1)
	p.AddConstraint([]lp.Entry{{2, 1}, {3, 1}}, lp.EQ, 1)
	p.AddConstraint([]lp.Entry{{0, 2}, {2, 2}}, lp.LE, 2)                 // interval 1 capacity
	p.AddConstraint([]lp.Entry{{0, 2}, {1, 2}, {2, 2}, {3, 2}}, lp.LE, 4) // cumulative
	solveEach(t, p, func(m string, sol *lp.Solution) {
		if sol.Status != lp.Optimal {
			t.Fatalf("%s: status = %v", m, sol.Status)
		}
		if math.Abs(sol.Objective-1) > 1e-8 {
			t.Fatalf("%s: objective = %g, want 1", m, sol.Objective)
		}
		if err := lp.CheckFeasible(p, sol.X, 1e-8); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
	})
}

func TestCheckFeasibleRejects(t *testing.T) {
	p := lp.NewProblem(1)
	p.AddConstraint([]lp.Entry{{0, 1}}, lp.LE, 1)
	if err := lp.CheckFeasible(p, []float64{2}, 1e-9); err == nil {
		t.Fatal("violation not caught")
	}
	if err := lp.CheckFeasible(p, []float64{-1}, 1e-9); err == nil {
		t.Fatal("negative variable not caught")
	}
	if err := lp.CheckFeasible(p, []float64{0, 0}, 1e-9); err == nil {
		t.Fatal("wrong arity not caught")
	}
}

func TestObjectiveEval(t *testing.T) {
	p := lp.NewProblem(2)
	p.SetObjective(0, 2)
	p.SetObjective(1, -3)
	if got := lp.Objective(p, []float64{1, 2}); math.Abs(got-(-4)) > 1e-12 {
		t.Fatalf("Objective = %g, want -4", got)
	}
}

func TestVariableRangePanics(t *testing.T) {
	p := lp.NewProblem(1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range variable accepted")
		}
	}()
	p.AddConstraint([]lp.Entry{{3, 1}}, lp.LE, 1)
}

func TestSenseString(t *testing.T) {
	if lp.LE.String() != "<=" || lp.EQ.String() != "=" || lp.GE.String() != ">=" {
		t.Fatal("Sense.String broken")
	}
	if lp.Optimal.String() != "optimal" || lp.Infeasible.String() != "infeasible" {
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

		p := lp.NewProblem(nVars)
		for j, c := range obj {
			p.SetObjective(j, c)
		}
		for r, row := range rows {
			var es []lp.Entry
			for j, c := range row {
				if c != 0 {
					es = append(es, lp.Entry{j, c})
				}
			}
			p.AddConstraint(es, lp.LE, rhs[r])
		}
		want := bruteForceLP(nVars, obj, rows, rhs)
		solveEach(t, p, func(m string, sol *lp.Solution) {
			if math.IsNaN(want) {
				if sol.Status != lp.Infeasible {
					t.Fatalf("%s: trial %d: brute force infeasible, simplex %v", m, trial, sol.Status)
				}
				return
			}
			if sol.Status != lp.Optimal {
				t.Fatalf("%s: trial %d: simplex %v, brute force %g", m, trial, sol.Status, want)
			}
			if math.Abs(sol.Objective-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("%s: trial %d: simplex %g, brute force %g", m, trial, sol.Objective, want)
			}
			if err := lp.CheckFeasible(p, sol.X, 1e-6); err != nil {
				t.Fatalf("%s: trial %d: %v", m, trial, err)
			}
		})
	}
}

func TestAccessors(t *testing.T) {
	p := lp.NewProblem(3)
	p.SetObjective(2, 4)
	p.AddConstraint([]lp.Entry{{0, 1}, {2, -2}}, lp.GE, 1)
	if p.NumVars() != 3 || p.NumConstraints() != 1 {
		t.Fatalf("accessors: %d vars %d rows", p.NumVars(), p.NumConstraints())
	}
	if entries, sense, rhs := p.Row(0); len(entries) != 2 || entries[1] != (lp.Entry{Var: 2, Coef: -2}) || sense != lp.GE || rhs != 1 {
		t.Fatalf("Row(0) = %v %v %g", entries, sense, rhs)
	}
	if p.Cost(0) != 0 || p.Cost(2) != 4 {
		t.Fatalf("Cost: %g, %g", p.Cost(0), p.Cost(2))
	}
	if lp.Sense(99).String() == "" || lp.Status(99).String() == "" {
		t.Fatal("unknown enum Strings empty")
	}
}

func TestSolveNilProblem(t *testing.T) {
	for _, m := range methods {
		if _, err := lp.SolveWith(nil, m.solve); err == nil {
			t.Fatalf("%s: nil problem accepted", m.name)
		}
	}
}

func TestNewProblemPanicsOnZeroVars(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewProblem(0) did not panic")
		}
	}()
	lp.NewProblem(0)
}
