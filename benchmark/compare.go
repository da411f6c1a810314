package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifestPath is where the contract puts the benchmark's declaration,
// relative to the repository root the benchmark is run from.
const manifestPath = "BENCHMARK.json"

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// exactCounts are the traced counts that depend only on the inputs and
// the scheduling decisions: between two runs of one seed they differ
// exactly when a decision changed. wct_over_lb is held to the same on
// every workload but serve-http, whose slots follow the wall clock.
var exactCounts = []string{"lpmodel.vars", "lpmodel.rows", "lp.pivots", "core.stages", "switchsim.matchings", "bvn.terms"}

// seedKey names one metric of one run by what determines it.
func seedKey(run runRecord, metric string) string {
	return fmt.Sprintf("%-18s seed %-4d %s", run.Workload, run.Seed, metric)
}

// verdict applies one metric's bound and direction to the runs of two
// sets, by the rule of the choosing-metrics guide: B regressed when its
// median is worse than A's by more than the bound; when either set's
// own spread exceeds the bound the difference cannot be told from
// noise and the row is unresolved, unless every run of B reads better
// than every run of A.
func verdict(m manifestMetric, a, b []float64) (string, float64, float64) {
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	medA, medB := median(a), median(b)
	worse := 0.0
	if medA != 0 {
		worse = sign * (medB - medA) / medA
	}
	noise := max(spread(a), spread(b))
	if noise > m.Bound {
		sa, sb := sorted(a), sorted(b)
		if (sign > 0 && sb[len(sb)-1] < sa[0]) || (sign < 0 && sb[0] > sa[len(sa)-1]) {
			return "ok", worse, noise
		}
		return "unresolved", worse, noise
	}
	if worse > m.Bound {
		return "regressed", worse, noise
	}
	return "ok", worse, noise
}

// runCompare prints one row per workload and end-to-end metric for the
// set files A and B, then whether the seed-determined counts agree,
// and fails when any row regressed.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two set files, got %d arguments", len(args))
	}
	var mf manifest
	if err := readJSON(manifestPath, &mf); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var sets [2]setFile
	for i, path := range args {
		if err := readJSON(path, &sets[i]); err != nil {
			return err
		}
	}
	// values[set] maps workload → metric → one value per run; byseed
	// keys the seed-determined values by workload, seed and metric.
	var values [2]map[string]map[string][]float64
	var byseed [2]map[string]float64
	for i, set := range sets {
		values[i] = map[string]map[string][]float64{}
		byseed[i] = map[string]float64{}
		for _, run := range set.Runs {
			if values[i][run.Workload] == nil {
				values[i][run.Workload] = map[string][]float64{}
			}
			for name, mv := range run.Metrics {
				values[i][run.Workload][name] = append(values[i][run.Workload][name], mv.Value)
				byseed[i][seedKey(run, name)] = mv.Value
			}
		}
	}

	regressed := 0
	fmt.Printf("%-18s %-16s %14s %14s %8s %8s %7s  %s\n", "workload", "metric", "median A", "median B", "worse", "spread", "bound", "verdict")
	for _, w := range mf.Workloads {
		for _, m := range mf.EndToEnd {
			a, b := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-18s %-16s %14s %14s %8s %8s %7s  %s\n", w.Name, m.Name, "-", "-", "-", "-", "-", "missing")
				regressed++
				continue
			}
			v, worse, noise := verdict(m, a, b)
			if v == "regressed" {
				regressed++
			}
			fmt.Printf("%-18s %-16s %14.6g %14.6g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, median(a), median(b), 100*worse, 100*noise, 100*m.Bound, v)
		}
	}

	same, differ := 0, 0
	for _, w := range mf.Workloads {
		names := exactCounts
		if w.Name != "serve-http" {
			names = append([]string{"wct_over_lb"}, names...)
		}
		for _, run := range sets[0].Runs {
			if run.Workload != w.Name {
				continue
			}
			for _, name := range names {
				key := seedKey(run, name)
				va, inA := byseed[0][key]
				vb, inB := byseed[1][key]
				switch {
				case !inA || !inB:
				case va == vb:
					same++
				default:
					differ++
					fmt.Printf("differs: %s: %v in A, %v in B\n", key, va, vb)
				}
			}
		}
	}
	fmt.Printf("seed-determined values: %d identical, %d differ\n", same, differ)
	if regressed > 0 {
		return fmt.Errorf("%d rows regressed or are missing", regressed)
	}
	return nil
}
