package experiments

import (
	"fmt"
	"testing"

	"coflow/internal/core"
	"coflow/internal/lp/dense"
	"coflow/internal/lpmodel"
	"coflow/internal/trace"
)

// TestTable1DenseReferenceCells reproduces the dense-reference note
// under EXPERIMENTS.md's Table 1: with the interval LP of every grid
// solved by the dense oracle instead of the production solver, the
// default run prints the same table. The two solvers may stop at
// different optimal vertices of a degenerate LP; the relative C̄ tie
// tolerance of the ordering absorbs the difference on all six grids.
func TestTable1DenseReferenceCells(t *testing.T) {
	if testing.Short() {
		t.Skip("solves six 50-port interval LPs on the dense tableau")
	}
	cfg := DefaultConfig()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := trace.Generate(cfg.Trace)
	if err != nil {
		t.Fatal(err)
	}
	var differ []string
	for _, g := range rep.Grids {
		ins := base.FilterMinFlows(g.Filter)
		applyWeighting(ins, g.Weighting, cfg.WeightSeed)
		ref, err := lpmodel.SolveIntervalLPWith(ins, dense.Solve)
		if err != nil {
			t.Fatal(err)
		}
		totals := map[string]float64{}
		for _, c := range Cases {
			grouping, backfill, err := CaseOptions(c)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.ExecuteOrdered(ins, ref.Order, core.Options{Grouping: grouping, Backfill: backfill, Recompute: cfg.Recompute})
			if err != nil {
				t.Fatal(err)
			}
			totals[c] = res.TotalWeighted
		}
		if baseline := g.Cell(core.OrderLP, "d").Total; totals["d"] != baseline {
			t.Fatalf("M0>=%d %v: H_LP (d) %g on the dense reference, %g in production", g.Filter, g.Weighting, totals["d"], baseline)
		}
		for _, c := range Cases {
			got := fmt.Sprintf("%.2f", totals[c]/totals["d"])
			if got != fmt.Sprintf("%.2f", g.Cell(core.OrderLP, c).Normalized) {
				differ = append(differ, fmt.Sprintf("M0>=%d (%s) %v %s", g.Filter, c, g.Weighting, got))
			}
		}
	}
	if len(differ) > 0 {
		t.Fatalf("H_LP cells that differ on the dense reference: %q", differ)
	}
}
