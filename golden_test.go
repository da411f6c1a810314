package coflow_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"coflow"
	"coflow/internal/core"
	"coflow/internal/lp"
	"coflow/internal/lpmodel"
)

// update regenerates the golden files instead of comparing:
//
//	go test -run TestGolden -update .
//
// Inspect the diff before committing — a changed golden file means the
// scheduler's output changed, which is either a deliberate algorithm
// change or a regression.
var update = flag.Bool("update", false, "rewrite golden files with current scheduler output")

// goldenRun pins one algorithm's exact output on one instance.
type goldenRun struct {
	Algorithm     string  `json:"algorithm"`
	TotalWeighted float64 `json:"total_weighted"`
	Makespan      int64   `json:"makespan"`
	Completions   []int64 `json:"completions"`
}

// goldenDoc is one committed golden file.
type goldenDoc struct {
	Instance string      `json:"instance"`
	Ports    int         `json:"ports"`
	Coflows  int         `json:"coflows"`
	Runs     []goldenRun `json:"runs"`
}

// goldenInstances are the pinned workloads: the paper's §2 worked
// example (the 2×2 demand matrix D = [[1,2],[2,1]], cleared by three
// matchings) and a 20-coflow seeded trace with staggered releases.
func goldenInstances(t *testing.T) map[string]*coflow.Instance {
	t.Helper()
	cfg := coflow.DefaultTraceConfig()
	cfg.Ports = 10
	cfg.NumCoflows = 20
	cfg.Seed = 424242
	cfg.MaxFlowSize = 25
	cfg.MeanInterarrival = 2
	pinned, err := coflow.GenerateTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*coflow.Instance{
		"worked_example": figure1Instance(),
		"pinned20":       pinned,
	}
}

// goldenSchedule runs every deterministic algorithm configuration on
// the instance. (Randomized is excluded: its output depends on an RNG,
// not just the instance.)
func goldenSchedule(t *testing.T, ins *coflow.Instance) []goldenRun {
	t.Helper()
	var runs []goldenRun
	batch := []struct {
		name string
		opts coflow.Options
	}{
		{"HLP+grouping", coflow.Options{Ordering: coflow.OrderLP, Grouping: true}},
		{"HLP+grouping+backfill", coflow.Options{Ordering: coflow.OrderLP, Grouping: true, Backfill: true}},
		{"Hrho+grouping", coflow.Options{Ordering: coflow.OrderLoadWeight, Grouping: true}},
		{"HA", coflow.Options{Ordering: coflow.OrderArrival}},
	}
	for _, b := range batch {
		res, err := coflow.Schedule(ins, b.opts)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		runs = append(runs, goldenRun{
			Algorithm:     b.name,
			TotalWeighted: res.TotalWeighted,
			Makespan:      res.Makespan,
			Completions:   res.Completion,
		})
	}
	for _, p := range []coflow.OnlinePolicy{coflow.OnlineSEBF, coflow.OnlineWSPT} {
		res, err := coflow.OnlineSchedule(ins, p)
		if err != nil {
			t.Fatalf("online %v: %v", p, err)
		}
		runs = append(runs, goldenRun{
			Algorithm:     fmt.Sprintf("online-%v", p),
			TotalWeighted: res.TotalWeighted,
			Makespan:      res.Makespan,
			Completions:   res.Completion,
		})
	}
	return runs
}

// TestGoldenSparseLP runs every LP-ordered golden configuration
// through the default Schedule (the sparse pipeline) and requires
// output byte-identical to the dense reference tableau, solved
// explicitly and executed with the same options. Together with
// TestGolden this pins the production LP against the committed golden
// files: any pivot-rule or presolve change that shifts the HLP
// ordering on the worked example or the 20-coflow instance fails here.
func TestGoldenSparseLP(t *testing.T) {
	for name, ins := range goldenInstances(t) {
		t.Run(name, func(t *testing.T) {
			ref, err := lpmodel.SolveIntervalLPWith(ins, lp.MethodDense)
			if err != nil {
				t.Fatalf("dense reference LP: %v", err)
			}
			for _, b := range []struct {
				name string
				opts coflow.Options
			}{
				{"HLP+grouping", coflow.Options{Ordering: coflow.OrderLP, Grouping: true}},
				{"HLP+grouping+backfill", coflow.Options{Ordering: coflow.OrderLP, Grouping: true, Backfill: true}},
			} {
				dense, err := core.ExecuteOrdered(ins, ref.Order, b.opts)
				if err != nil {
					t.Fatalf("%s dense: %v", b.name, err)
				}
				sparse, err := coflow.Schedule(ins, b.opts)
				if err != nil {
					t.Fatalf("%s sparse: %v", b.name, err)
				}
				if sparse.TotalWeighted != dense.TotalWeighted || sparse.Makespan != dense.Makespan {
					t.Fatalf("%s: sparse LP changed objective/makespan: %.0f/%d vs %.0f/%d",
						b.name, sparse.TotalWeighted, sparse.Makespan, dense.TotalWeighted, dense.Makespan)
				}
				if !reflect.DeepEqual(sparse.Order, dense.Order) {
					t.Fatalf("%s: sparse LP changed the HLP order: %v vs %v",
						b.name, sparse.Order, dense.Order)
				}
				if !reflect.DeepEqual(sparse.Completion, dense.Completion) {
					t.Fatalf("%s: sparse LP changed per-coflow completions: %v vs %v",
						b.name, sparse.Completion, dense.Completion)
				}
			}
		})
	}
}

// TestGolden locks the exact output — per-coflow completion slots and
// the weighted objective — of every deterministic scheduler on two
// pinned instances against committed JSON. Any drift (a reordered
// tie-break, an off-by-one in stage lengths, a changed LP pivot rule)
// fails here before it can silently shift the paper's tables.
func TestGolden(t *testing.T) {
	for name, ins := range goldenInstances(t) {
		t.Run(name, func(t *testing.T) {
			got := goldenDoc{
				Instance: name,
				Ports:    ins.Ports,
				Coflows:  len(ins.Coflows),
				Runs:     goldenSchedule(t, ins),
			}
			path := filepath.Join("testdata", "golden_"+name+".json")
			if *update {
				buf, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with: go test -run TestGolden -update .)", err)
			}
			var want goldenDoc
			if err := json.Unmarshal(buf, &want); err != nil {
				t.Fatalf("corrupt golden file %s: %v", path, err)
			}
			if got.Ports != want.Ports || got.Coflows != want.Coflows {
				t.Fatalf("instance shape %d ports/%d coflows, golden has %d/%d",
					got.Ports, got.Coflows, want.Ports, want.Coflows)
			}
			for i, w := range want.Runs {
				if i >= len(got.Runs) {
					t.Fatalf("golden has %d runs, got %d", len(want.Runs), len(got.Runs))
				}
				g := got.Runs[i]
				if g.Algorithm != w.Algorithm {
					t.Fatalf("run %d is %q, golden has %q", i, g.Algorithm, w.Algorithm)
				}
				if g.TotalWeighted != w.TotalWeighted || g.Makespan != w.Makespan {
					t.Errorf("%s: objective/makespan = %.0f/%d, golden %.0f/%d (run -update if intended)",
						g.Algorithm, g.TotalWeighted, g.Makespan, w.TotalWeighted, w.Makespan)
					continue
				}
				if !reflect.DeepEqual(g.Completions, w.Completions) {
					t.Errorf("%s: per-coflow completions drifted from golden (same objective): %v vs %v",
						g.Algorithm, g.Completions, w.Completions)
				}
			}
			if len(got.Runs) != len(want.Runs) {
				t.Errorf("got %d runs, golden has %d", len(got.Runs), len(want.Runs))
			}
		})
	}
}
