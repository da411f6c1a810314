package lpmodel

// The resident lp.Solver and the H_ρ start basis, on the LPs this
// package builds: a reused solver answers like a fresh one, a warmed
// one allocates only its answer, the greedy vertex is always accepted,
// and the ordering read off the optimum does not depend on the pivot
// path that reached it.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/lp"
	"coflow/internal/obs"
	"coflow/internal/trace"
)

// generated is trace.MustGenerate with random permutation weights, the
// benchmark's instance recipe.
func generated(ports, coflows int, seed int64, interarrival float64) *coflowmodel.Instance {
	cfg := trace.DefaultConfig()
	cfg.Ports, cfg.NumCoflows, cfg.Seed, cfg.MeanInterarrival = ports, coflows, seed, interarrival
	ins := trace.MustGenerate(cfg)
	ins.SetRandomPermutationWeights(rand.New(rand.NewSource(seed)))
	return ins
}

// startCases are the shapes the greedy start must survive.
func startCases() []relaxation {
	lastOnly := &coflowmodel.Instance{Ports: 2, Coflows: []coflowmodel.Coflow{
		{ID: 1, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 1}}},
		// Released at 100 of a 102-slot horizon: τ_{L−1} = 64 < 101, so
		// its only interval is the last and presolve fixes its column.
		{ID: 2, Weight: 2, Release: 100, Flows: []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 1}}},
		{ID: 3, Weight: 1, Flows: []coflowmodel.Flow{{Src: 1, Dst: 0, Size: 3}}},
	}}
	withEmpty := generated(4, 6, 5, 0)
	withEmpty.Coflows[2].Flows = nil
	small := generated(6, 8, 3, 2)
	for k := range small.Coflows {
		for f := range small.Coflows[k].Flows {
			small.Coflows[k].Flows[f].Size = 1 + small.Coflows[k].Flows[f].Size%4
		}
	}
	return []relaxation{
		{name: "zero releases", ins: generated(20, 40, 11, 0)},
		{name: "poisson releases", ins: generated(20, 40, 12, 25)},
		{name: "only the last interval", ins: lastOnly},
		{name: "empty coflow", ins: withEmpty},
		{name: "unit grid", ins: small, unit: true},
		{name: "unit grid, late release", ins: lastOnly, unit: true},
	}
}

func sameObjective(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*max(1, math.Abs(a), math.Abs(b))
}

// TestGreedyStartIsFeasible: every coflow's start column is seated
// unless presolve fixed it (its only interval is the last), the seated
// basis is never discarded, and the optimum is the cold solve's.
func TestGreedyStartIsFeasible(t *testing.T) {
	o := lp.NewObs(obs.NewRegistry())
	lp.SetObs(o)
	defer lp.SetObs(lp.Obs{})
	fixedSeen := 0
	for _, r := range startCases() {
		mod := r.model(t)
		n, L := len(r.ins.Coflows), len(mod.tau)-1
		fixed := 0
		for _, l := range mod.lMin {
			if l == L {
				fixed++
			}
		}
		fixedSeen += fixed
		start := mod.greedyStart(r.ins)
		if len(start) != n {
			t.Fatalf("%s: start names %d columns for %d coflows", r.name, len(start), n)
		}
		cold, err := lp.SolveSparse(mod.prob)
		if err != nil || cold.Status != lp.Optimal {
			t.Fatalf("%s: cold solve: %v %v", r.name, cold, err)
		}
		installed, discarded := o.StartInstalled.Value(), o.StartDiscarded.Value()
		warm, err := lp.SolveSparseFrom(mod.prob, start)
		if err != nil || warm.Status != lp.Optimal {
			t.Fatalf("%s: started solve: %v %v", r.name, warm, err)
		}
		installed, discarded = o.StartInstalled.Value()-installed, o.StartDiscarded.Value()-discarded
		if skipped := int64(n) - installed; discarded != 0 || skipped != int64(fixed) {
			t.Errorf("%s: installed %d, skipped %d (presolve fixed %d), discarded %d of %d columns",
				r.name, installed, skipped, fixed, discarded, n)
		}
		if !sameObjective(cold.Objective, warm.Objective) {
			t.Errorf("%s: objective %.12g from the start, %.12g cold", r.name, warm.Objective, cold.Objective)
		}
		if err := lp.CheckFeasible(mod.prob, warm.X, 1e-6); err != nil {
			t.Errorf("%s: started solution: %v", r.name, err)
		}
	}
	if fixedSeen == 0 {
		t.Errorf("presolve fixed %d columns over all cases; the skipped-column path is not exercised", fixedSeen)
	}
}

// TestOrderIsPathIndependent solves each instance along two pivot
// paths, cold and from the greedy vertex. Where both reach the same
// optimum (C̄ equal to rounding) the order must be the same; where they
// reach different vertices the objectives must still agree.
func TestOrderIsPathIndependent(t *testing.T) {
	// batch-lp's instances (run seed, pool index). On the first six an
	// absolute 1e-12 tie rule ordered two coflows by the last bits of C̄
	// (max |ΔC̄| 2e-12 to 8e-12 between the paths) and the order flipped;
	// 9/21 has two optimal vertices 20.7 apart in C̄; the rest are
	// ordinary.
	pool := [][2]int64{{9, 19}, {9, 44}, {9, 68}, {10, 33}, {10, 78}, {11, 83}, {9, 21}, {9, 0}, {10, 1}, {11, 2}}
	if testing.Short() {
		pool = pool[4:8]
	}
	var cases []relaxation
	for _, si := range pool {
		cases = append(cases, relaxation{
			name: fmt.Sprintf("50x100 seed %d/%d", si[0], si[1]),
			ins:  generated(50, 100, si[0]*1_000_003+si[1], 0),
		})
	}
	for seed := int64(9); seed < 12; seed++ {
		cases = append(cases, relaxation{
			name: fmt.Sprintf("20x60 released seed %d", seed),
			ins:  generated(20, 60, seed, 30),
		})
	}
	same := 0
	for _, r := range cases {
		mod := r.model(t)
		read := func(sol *lp.Solution, err error) *IntervalSolution {
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			out, err := mod.read(r.ins, r.name, sol)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		cold := read(lp.SolveSparse(mod.prob))
		warm := read(lp.SolveSparseFrom(mod.prob, mod.greedyStart(r.ins)))
		if cold.Iterations == warm.Iterations {
			t.Errorf("%s: both solves took %d pivots; the start changed nothing", r.name, cold.Iterations)
		}
		var delta float64
		for k := range cold.CBar {
			delta = max(delta, math.Abs(cold.CBar[k]-warm.CBar[k]))
		}
		if delta > 1e-6 {
			if !sameObjective(cold.LowerBound, warm.LowerBound) {
				t.Errorf("%s: C̄ differ by %g and the objectives too: %.12g cold, %.12g started",
					r.name, delta, cold.LowerBound, warm.LowerBound)
			}
			continue
		}
		same++
		if !slices.Equal(cold.Order, warm.Order) {
			t.Errorf("%s: same optimum (max |ΔC̄| = %g), different order:\ncold    %v\nstarted %v",
				r.name, delta, cold.Order, warm.Order)
		}
		for _, alpha := range []float64{0.5, 1} {
			a, _ := cold.OrderByAlphaPoints(r.ins, alpha)
			b, _ := warm.OrderByAlphaPoints(r.ins, alpha)
			if !slices.Equal(a, b) {
				t.Errorf("%s: same optimum, different α=%g order", r.name, alpha)
			}
		}
	}
	if same < len(cases)/2 {
		t.Errorf("only %d of %d instances reached the same vertex on both paths; the comparison is not exercised", same, len(cases))
	}
}

// solverProblem is one entry of the reuse sequence.
type solverProblem struct {
	name  string
	prob  *lp.Problem
	start []int
}

func reuseProblems(t *testing.T) []solverProblem {
	t.Helper()
	var out []solverProblem
	for _, r := range append(goldenRelaxations(), startCases()...) {
		mod := r.model(t)
		out = append(out,
			solverProblem{r.name + " cold", mod.prob, nil},
			solverProblem{r.name + " started", mod.prob, mod.greedyStart(r.ins)})
	}
	for _, name := range []string{"reduced_worked_example.mps", "reduced_pinned20.mps"} {
		f, err := os.Open(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		p, err := lp.ReadMPS(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, solverProblem{name, p, nil}, solverProblem{name + " junk start", p, []int{3, -1, 3, 1 << 20, 0}})
	}
	infeasible := lp.NewProblem(2)
	infeasible.AddConstraint([]lp.Entry{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.GE, 4)
	infeasible.AddConstraint([]lp.Entry{{Var: 0, Coef: 1}, {Var: 1, Coef: 1}}, lp.LE, 1)
	unbounded := lp.NewProblem(2)
	unbounded.SetObjective(0, -1)
	unbounded.SetObjective(1, -1)
	unbounded.AddConstraint([]lp.Entry{{Var: 0, Coef: 1}, {Var: 1, Coef: -1}}, lp.LE, 1)
	decided := lp.NewProblem(1)
	decided.AddConstraint([]lp.Entry{{Var: 0, Coef: 1}}, lp.GE, 2)
	decided.AddConstraint([]lp.Entry{{Var: 0, Coef: 1}}, lp.LE, 1)
	return append(out,
		solverProblem{"infeasible", infeasible, []int{0, 1}},
		solverProblem{"unbounded", unbounded, nil},
		solverProblem{"infeasible in presolve", decided, nil})
}

// TestSolverReuseMatchesFresh drives one Solver through problems of
// every size and verdict in shuffled order: whatever it solved before,
// its answer is a fresh Solver's bit for bit, so no workspace entry
// outlives the solve that wrote it.
func TestSolverReuseMatchesFresh(t *testing.T) {
	problems := reuseProblems(t)
	want := make([]*lp.Solution, len(problems))
	statuses := map[lp.Status]bool{}
	for i, sp := range problems {
		sol, err := new(lp.Solver).Solve(sp.prob, sp.start)
		if err != nil {
			t.Fatalf("%s: fresh solver: %v", sp.name, err)
		}
		want[i] = sol
		statuses[sol.Status] = true
	}
	for _, s := range []lp.Status{lp.Optimal, lp.Infeasible, lp.Unbounded} {
		if !statuses[s] {
			t.Errorf("no problem in the sequence ends %v", s)
		}
	}
	var reused lp.Solver
	rng := rand.New(rand.NewSource(23))
	for pass := 0; pass < 3; pass++ {
		for _, i := range rng.Perm(len(problems)) {
			sp := problems[i]
			got, err := reused.Solve(sp.prob, sp.start)
			if err != nil {
				t.Fatalf("pass %d, %s: %v", pass, sp.name, err)
			}
			if got.Status != want[i].Status || got.Iterations != want[i].Iterations ||
				got.Objective != want[i].Objective || !slices.Equal(got.X, want[i].X) {
				t.Fatalf("pass %d, %s: reused solver %v after %d pivots, objective %v; fresh %v after %d, objective %v (X equal: %v)",
					pass, sp.name, got.Status, got.Iterations, got.Objective,
					want[i].Status, want[i].Iterations, want[i].Objective, slices.Equal(got.X, want[i].X))
			}
		}
	}
}

// TestSolverSteadyStateDoesNotAllocate: the second solve of a problem
// on a warmed Solver allocates its Solution and the X inside it, and
// nothing else — cold or started, (LP) or (LP-EXP), at batch-lp's
// 50 × 100 shape, and for a small problem on a Solver a large one
// warmed.
func TestSolverSteadyStateDoesNotAllocate(t *testing.T) {
	cases := append(goldenRelaxations(), relaxation{name: "batch-lp 50x100", ins: generated(50, 100, 9*1_000_003, 0)})
	for _, r := range cases {
		mod := r.model(t)
		for _, start := range [][]int{nil, mod.greedyStart(r.ins)} {
			var s lp.Solver
			solve := func() {
				if sol, err := s.Solve(mod.prob, start); err != nil || sol.Status != lp.Optimal {
					t.Fatalf("%s: %v %v", r.name, sol, err)
				}
			}
			solve()
			if allocs := testing.AllocsPerRun(3, solve); allocs > 2 {
				t.Errorf("%s (start of %d columns): %v allocations per warmed solve, want ≤ 2 (the Solution and its X)",
					r.name, len(start), allocs)
			}
		}
	}
	// Large then small on one Solver: every workspace slice the large
	// solve grew serves the small one.
	large, small := cases[len(cases)-1].model(t), cases[1].model(t)
	var s lp.Solver
	if _, err := s.Solve(large.prob, nil); err != nil {
		t.Fatal(err)
	}
	solveSmall := func() {
		if sol, err := s.Solve(small.prob, nil); err != nil || sol.Status != lp.Optimal {
			t.Fatalf("%s after %s: %v %v", cases[1].name, cases[len(cases)-1].name, sol, err)
		}
	}
	if allocs := testing.AllocsPerRun(3, solveSmall); allocs > 2 {
		t.Errorf("%s after %s: %v allocations per solve, want ≤ 2 (the Solution and its X)",
			cases[1].name, cases[len(cases)-1].name, allocs)
	}
}

// TestConcurrentSolvesShareThePool runs the production entry point from
// four goroutines per P at once (the experiments solve concurrently),
// more borrowers than lp's store has slots; under -race this is the
// proof that resident solvers are never shared. lp's
// TestPooledSolversAreNotShared checks the store's capacity afterwards.
func TestConcurrentSolvesShareThePool(t *testing.T) {
	cases := startCases()
	want := make([]*IntervalSolution, len(cases))
	for i, r := range cases[:4] {
		sol, err := SolveIntervalLP(r.ins)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		want[i] = sol
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4*runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for round := 0; round < 6; round++ {
				i := (g + round) % 4
				got, err := SolveIntervalLP(cases[i].ins)
				if err != nil {
					t.Errorf("%s: %v", cases[i].name, err)
					return
				}
				if got.LowerBound != want[i].LowerBound || got.Iterations != want[i].Iterations || !slices.Equal(got.Order, want[i].Order) {
					t.Errorf("%s: goroutine %d got bound %v after %d pivots, alone %v after %d",
						cases[i].name, g, got.LowerBound, got.Iterations, want[i].LowerBound, want[i].Iterations)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
