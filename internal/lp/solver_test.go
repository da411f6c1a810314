package lp

// The start-basis seam of Solver, on hand-made problems: a start the
// guard rejects leaves no trace in the answer, a start it accepts only
// shortens the path, and resident solvers are never shared. The sweep of
// random starts against the dense oracle is in differential_test.go; the
// tests on real coflow LPs (reuse, steady-state allocations, the greedy
// vertex) live in internal/lpmodel.

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"coflow/internal/obs"
)

// twoJobs is a two-coflow, two-interval LP in the interval relaxation's
// shape: x0,x1 place job A in interval 1 or 2, x2,x3 job B; the load row
// admits one job in interval 1. Columns 0 and 2 together are a basis
// with a negative slack.
func twoJobs() *Problem {
	p := NewProblem(4)
	for v, c := range []float64{0, 2, 0, 3} {
		p.SetObjective(v, c)
	}
	p.AddConstraint([]Entry{{0, 1}, {1, 1}}, EQ, 1)
	p.AddConstraint([]Entry{{2, 1}, {3, 1}}, EQ, 1)
	p.AddConstraint([]Entry{{0, 2}, {2, 2}}, LE, 2)
	p.AddConstraint([]Entry{{0, 2}, {1, 2}, {2, 2}, {3, 2}}, LE, 5)
	return p
}

func sameSolution(a, b *Solution) bool {
	return a.Status == b.Status && a.Iterations == b.Iterations && a.Objective == b.Objective && slices.Equal(a.X, b.X)
}

// TestGarbageStartIsDiscarded: a start naming out-of-range, duplicate
// and already-basic columns whose seated basis is infeasible is dropped
// whole, and the answer is the cold answer bit for bit.
func TestGarbageStartIsDiscarded(t *testing.T) {
	o := NewObs(obs.NewRegistry())
	SetObs(o)
	defer SetObs(Obs{})
	p := twoJobs()
	cold, err := new(Solver).Solve(p, nil)
	if err != nil || cold.Status != Optimal || cold.Objective != 2 {
		t.Fatalf("cold: %+v %v", cold, err)
	}
	for _, tc := range []struct {
		name                 string
		start                []int
		installed, discarded int64
	}{
		{"infeasible basis among junk", []int{-1, 0, 0, 99, 2, 4, 2}, 0, 1},
		{"nothing seatable", []int{-7, 4, 1 << 30}, 0, 0},
		{"the optimal vertex", []int{1, 2}, 2, 0},
		{"a feasible vertex, then the rows are taken", []int{1, 3, 0, 2}, 2, 0},
	} {
		installed, discarded := o.StartInstalled.Value(), o.StartDiscarded.Value()
		got, err := new(Solver).Solve(p, tc.start)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		installed, discarded = o.StartInstalled.Value()-installed, o.StartDiscarded.Value()-discarded
		if installed != tc.installed || discarded != tc.discarded {
			t.Errorf("%s: installed %d columns and discarded %d starts, want %d and %d",
				tc.name, installed, discarded, tc.installed, tc.discarded)
		}
		if tc.installed == 0 && !sameSolution(got, cold) {
			t.Errorf("%s: %+v, cold %+v", tc.name, got, cold)
		}
		if got.Status != Optimal || got.Objective != cold.Objective {
			t.Errorf("%s: %v objective %v, cold optimum %v", tc.name, got.Status, got.Objective, cold.Objective)
		}
		if tc.installed > 0 && got.Iterations >= cold.Iterations {
			t.Errorf("%s: %d pivots from the start, %d cold", tc.name, got.Iterations, cold.Iterations)
		}
	}
}

// TestPooledSolversAreNotShared solves through the real store from
// four goroutines per slot at once, so borrowers outnumber residents
// and some returns find the store full; afterwards the store keeps no
// more than its capacity. `make race` runs it under the detector.
func TestPooledSolversAreNotShared(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var problems []*Problem
	var want []*Solution
	for len(problems) < 12 {
		p := randomProblem(rng)
		sol, err := new(Solver).Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		problems, want = append(problems, p), append(want, sol)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4*cap(solvers); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for round := 0; round < 200; round++ {
				i := (g*5 + round) % len(problems)
				got, err := SolveSparseFrom(problems[i], nil)
				if err != nil || !sameSolution(got, want[i]) {
					t.Errorf("goroutine %d, problem %d: %+v %v, alone %+v", g, i, got, err, want[i])
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if n := len(solvers); n == 0 || n > cap(solvers) {
		t.Fatalf("store holds %d idle Solvers after the burst, want 1 to %d", n, cap(solvers))
	}
}

// TestResidentSolverSurvivesGC: two collections after SolveSparseFrom
// solved a problem, solving it again allocates the Solution and its X,
// as on a warmed Solver (TestSolverSteadyStateDoesNotAllocate in
// lpmodel), not a fresh Solver's workspace, which a sync.Pool emptied by
// the collections rebuilt.
func TestResidentSolverSurvivesGC(t *testing.T) {
	for len(solvers) > 0 { // one resident, so the second solve meets the first one's
		<-solvers
	}
	// As in testing.AllocsPerRun: no other goroutine allocates meanwhile.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, start := twoJobs(), []int{1, 2}
	solve := func() {
		if sol, err := SolveSparseFrom(p, start); err != nil || sol.Status != Optimal {
			t.Fatalf("%+v %v", sol, err)
		}
	}
	solve()
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solve()
	runtime.ReadMemStats(&after)
	if mallocs := after.Mallocs - before.Mallocs; mallocs > 2 {
		t.Fatalf("SolveSparseFrom after two collections: %d allocations (%d B), want ≤ 2 (the Solution and its X)",
			mallocs, after.TotalAlloc-before.TotalAlloc)
	}
}
