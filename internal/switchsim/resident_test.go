package switchsim

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"coflow/internal/obs"
)

// pinExecutor makes every Execute of the test run on one executor that
// starts process-fresh: a one-slot store holding it lends it to each
// call and takes it back. Package tests do not run in parallel.
func pinExecutor(t *testing.T) {
	t.Helper()
	saved := executors
	executors = make(chan *executor, 1)
	executors <- new(executor)
	t.Cleanup(func() { executors = saved })
}

// residentPlan is a dense random plan on m ports: grouped stages, so
// the stage matrices are far from the single-coflow case, and every
// pair queue several items deep.
func residentPlan(seed int64, m, n int, backfill, recompute bool) *Plan {
	rng := rand.New(rand.NewSource(seed))
	return &Plan{
		Ins:       randomInstance(rng, m, n, 9, 12),
		Order:     rng.Perm(n),
		Stages:    randomStages(rng, n),
		Backfill:  backfill,
		Recompute: recompute,
	}
}

type executed struct {
	block, slot *Result
	tr          *Transcript
}

func executeBoth(t *testing.T, plan *Plan) executed {
	t.Helper()
	block, err := Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	slot, tr, err := ExecuteRecorded(plan)
	if err != nil {
		t.Fatal(err)
	}
	return executed{block, slot, tr}
}

// A schedule is a function of the plan alone. The executor and its
// Decomposer outlive the plan, so whatever ran before — another plan
// of the same port count (the Decomposer is kept), another port count,
// a plan refused halfway through load — must leave no trace in the
// Result or in the unit-level transcript.
func TestExecuteIsHistoryIndependent(t *testing.T) {
	pinExecutor(t)
	a := residentPlan(1, 20, 12, true, false)
	want := executeBoth(t, a)
	again := func(after string) {
		t.Helper()
		if got := executeBoth(t, a); !reflect.DeepEqual(got, want) {
			t.Fatalf("plan A after %s differs from its run on a fresh executor:\n got %+v\nwant %+v", after, got.block, want.block)
		}
	}
	again("itself")

	executeBoth(t, residentPlan(2, 20, 9, false, true))
	again("another 20-port plan")

	executeBoth(t, residentPlan(3, 7, 15, true, true))
	again("a 7-port plan")

	notPerm := *a
	notPerm.Order = append([]int(nil), a.Order...)
	notPerm.Order[3] = notPerm.Order[4]
	overlap := *a
	overlap.Stages = []Stage{{0, 7}, {5, 12}}
	for _, bad := range []*Plan{&notPerm, &overlap} {
		if _, err := Execute(bad); err == nil {
			t.Fatal("invalid plan accepted")
		}
		if _, _, err := ExecuteRecorded(bad); err == nil {
			t.Fatal("invalid plan accepted by ExecuteRecorded")
		}
		again("a refused plan")
	}
}

// Once an executor has seen a plan's sizes, Execute allocates what it
// returns — the Result and its Completion slice, 2 allocations — and
// nothing of its own. Instance.Validate's duplicate-ID set is counted
// apart (3 on go1.24's maps): load calls it, but it is not the
// executor's to keep.
func TestExecuteSteadyStateAllocs(t *testing.T) {
	pinExecutor(t)
	plan := residentPlan(4, 30, 40, true, false)
	if _, err := Execute(plan); err != nil {
		t.Fatal(err)
	}
	validate := testing.AllocsPerRun(20, func() {
		if err := plan.Ins.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Execute(plan); err != nil {
			t.Fatal(err)
		}
	})
	if allocs-validate > 2 {
		t.Fatalf("warm Execute allocates %v times per plan, %v of them in Validate: want 2 of its own", allocs, validate)
	}
}

// Four goroutines per slot of the real store execute plans of four
// port counts at once, so borrowers outnumber residents and some
// returns find the store full; each result must be the one the plan
// produced alone, and the store keeps no more than its capacity. `make
// race` runs this under the detector.
func TestPooledExecutorsAreNotShared(t *testing.T) {
	var plans []*Plan
	var want []executed
	for i, m := range []int{3, 20, 7, 12, 20, 3} {
		p := residentPlan(int64(10+i), m, 6+i, i%3 != 0, i%2 == 0)
		plans, want = append(plans, p), append(want, executeBoth(t, p))
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4*cap(executors); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for round := 0; round < 40; round++ {
				i := (g*5 + round) % len(plans)
				block, err := Execute(plans[i])
				if err != nil || !reflect.DeepEqual(block, want[i].block) {
					t.Errorf("goroutine %d, plan %d: Execute %+v %v, alone %+v", g, i, block, err, want[i].block)
					return
				}
				slot, tr, err := ExecuteRecorded(plans[i])
				if err != nil || !reflect.DeepEqual(executed{block, slot, tr}, want[i]) {
					t.Errorf("goroutine %d, plan %d: ExecuteRecorded differs from its serial run (%v)", g, i, err)
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if n := len(executors); n == 0 || n > cap(executors) {
		t.Fatalf("store holds %d idle executors after the burst, want 1 to %d", n, cap(executors))
	}
}

// The store survives garbage collection. Two collections after a
// 100-port plan ran, running it again allocates what the call returns
// and what Instance.Validate allocates (as in
// TestExecuteSteadyStateAllocs), not a fresh executor: a sync.Pool,
// emptied by the collections, made the second call rebuild the queues
// and the Decomposer, 11.6 MB in 5,448 allocations.
func TestResidentExecutorSurvivesGC(t *testing.T) {
	for len(executors) > 0 { // one resident, so the second call meets the first one's
		<-executors
	}
	// As in testing.AllocsPerRun: no other goroutine allocates meanwhile.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	plan := residentPlan(1, 100, 60, true, false)
	if _, err := Execute(plan); err != nil {
		t.Fatal(err)
	}
	delta := func(f func()) (bytes, mallocs uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	vBytes, vMallocs := delta(func() {
		if err := plan.Ins.Validate(); err != nil {
			t.Fatal(err)
		}
	})
	runtime.GC()
	runtime.GC()
	var res *Result
	bytes, mallocs := delta(func() {
		var err error
		if res, err = Execute(plan); err != nil {
			t.Fatal(err)
		}
	})
	// The Result and its Completion slice, rounded up to size classes.
	const resultBytes = 128
	if need := uint64(resultBytes + 8*len(res.Completion)); mallocs > vMallocs+2 || bytes > vBytes+need {
		t.Fatalf("Execute after two collections allocated %d B in %d mallocs; Validate takes %d B in %d, the Result about %d B in 2",
			bytes, mallocs, vBytes, vMallocs, need)
	}
}

// The in-program witness of the resident engine: the permutation pool
// is filled by the first plan of a port count and only reused after it,
// and the hooks installed by SetObs reach an executor that was built
// before they were installed.
func TestTermBuffersOutliveThePlan(t *testing.T) {
	pinExecutor(t)
	plan := residentPlan(5, 16, 10, true, false)
	if _, err := Execute(plan); err != nil { // builds the Decomposer with no hooks
		t.Fatal(err)
	}
	o := NewObs(obs.NewRegistry())
	SetObs(o)
	t.Cleanup(func() { SetObs(Obs{}) })
	allocs, reuses := o.Decompose.TermAllocs, o.Decompose.TermReuses
	for run := 1; run <= 3; run++ {
		before := reuses.Value()
		if _, err := Execute(plan); err != nil {
			t.Fatal(err)
		}
		if allocs.Value() != 0 {
			t.Fatalf("run %d: %d term buffers allocated after the first plan on 16 ports", run, allocs.Value())
		}
		if reuses.Value() <= before {
			t.Fatalf("run %d: term-buffer reuses stood still at %d", run, before)
		}
	}
	if _, err := Execute(residentPlan(6, 9, 10, true, false)); err != nil {
		t.Fatal(err)
	}
	if allocs.Value() == 0 {
		t.Fatal("the first 9-port plan allocated no term buffer: the counter is not wired")
	}
}
