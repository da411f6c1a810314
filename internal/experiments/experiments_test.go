package experiments

import (
	"runtime"
	"strings"
	"testing"

	"coflow/internal/core"
	"coflow/internal/trace"
)

// tinyConfig keeps unit tests fast: a 16-port fabric with small flows.
func tinyConfig() Config {
	tr := trace.DefaultConfig()
	tr.Ports = 16
	tr.NumCoflows = 40
	tr.MaxFlowSize = 30
	tr.Seed = 3
	return Config{Trace: tr, Filters: []int{12, 6}, WeightSeed: 11}
}

func TestCaseOptions(t *testing.T) {
	for _, c := range Cases {
		g, b, err := CaseOptions(c)
		if err != nil {
			t.Fatal(err)
		}
		wantG := c == "c" || c == "d"
		wantB := c == "b" || c == "d"
		if g != wantG || b != wantB {
			t.Fatalf("case %s: got (%v,%v), want (%v,%v)", c, g, b, wantG, wantB)
		}
	}
	if _, _, err := CaseOptions("z"); err == nil {
		t.Fatal("unknown case accepted")
	}
}

func TestRunProducesFullGrids(t *testing.T) {
	rep, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Grids) != 4 { // 2 filters × 2 weightings
		t.Fatalf("got %d grids, want 4", len(rep.Grids))
	}
	for _, g := range rep.Grids {
		if len(g.Cells) != 12 {
			t.Fatalf("grid %d/%v has %d cells", g.Filter, g.Weighting, len(g.Cells))
		}
		base := g.Cell(core.OrderLP, "d")
		if base == nil || base.Normalized != 1.0 {
			t.Fatalf("baseline not normalized to 1: %+v", base)
		}
		if g.LPLowerBound <= 0 {
			t.Fatalf("missing LP lower bound in grid %+v", g)
		}
		if g.LPLowerBound > base.Total {
			t.Fatalf("LP bound %g above schedule %g", g.LPLowerBound, base.Total)
		}
		for _, cell := range g.Cells {
			if cell.Total <= 0 || cell.Normalized <= 0 {
				t.Fatalf("degenerate cell %+v", cell)
			}
		}
	}
}

// The paper's headline qualitative findings must reproduce: backfilling
// never hurts with fixed stages, case (d) beats the base case for the
// informed orderings, and the arrival order H_A is far worse than the
// load-aware orderings.
func TestQualitativeFindings(t *testing.T) {
	rep, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range rep.Grids {
		for _, o := range Orderings {
			a := g.Cell(o, "a").Total
			b := g.Cell(o, "b").Total
			c := g.Cell(o, "c").Total
			d := g.Cell(o, "d").Total
			if b > a+1e-9 {
				t.Fatalf("%v/%v: backfilling hurt without grouping (%g > %g)", g.Filter, o, b, a)
			}
			if d > c+1e-9 {
				t.Fatalf("%v/%v: backfilling hurt with grouping (%g > %g)", g.Filter, o, d, c)
			}
		}
		for _, o := range []core.Ordering{core.OrderLoadWeight, core.OrderLP} {
			if d, a := g.Cell(o, "d").Total, g.Cell(o, "a").Total; d > a+1e-9 {
				t.Fatalf("%v/%v: case (d) worse than base (%g > %g)", g.Filter, o, d, a)
			}
		}
		// H_A is substantially worse than the load-aware orderings in
		// the base case, where ordering dominates. (In case (d) the
		// grouping washes much of the difference out at small scale.)
		ha := g.Cell(core.OrderArrival, "a").Normalized
		hr := g.Cell(core.OrderLoadWeight, "a").Normalized
		if ha < hr {
			t.Fatalf("filter %d %v: HA (%g) beat Hrho (%g) in the base case",
				g.Filter, g.Weighting, ha, hr)
		}
	}
}

func TestFig2a(t *testing.T) {
	rep, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := rep.Fig2a()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("fig2a rows = %d, want 3", len(rows))
	}
	for _, row := range rows {
		if row.Percent["a"] != 100 {
			t.Fatalf("base case not 100%%: %+v", row)
		}
		if row.Percent["b"] > 100+1e-9 {
			t.Fatalf("backfilling above 100%%: %+v", row)
		}
		if row.Percent["d"] > row.Percent["c"]+1e-9 {
			t.Fatalf("case (d) above case (c): %+v", row)
		}
	}
}

func TestFig2b(t *testing.T) {
	rep, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cells, err := rep.Fig2b()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("fig2b cells = %d, want 6", len(cells))
	}
}

func TestFormatting(t *testing.T) {
	rep, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	t1 := rep.FormatTable1()
	if !strings.Contains(t1, "Table 1") || !strings.Contains(t1, "HLP") {
		t.Fatalf("Table1 format missing headers:\n%s", t1)
	}
	f2a, err := rep.FormatFig2a()
	if err != nil || !strings.Contains(f2a, "Figure 2a") {
		t.Fatalf("Fig2a format broken: %v\n%s", err, f2a)
	}
	f2b, err := rep.FormatFig2b()
	if err != nil || !strings.Contains(f2b, "Figure 2b") {
		t.Fatalf("Fig2b format broken: %v\n%s", err, f2b)
	}
}

func TestPaperReferenceTableComplete(t *testing.T) {
	for _, filter := range []int{50, 40, 30} {
		for _, w := range []Weighting{EqualWeights, RandomWeights} {
			for _, c := range Cases {
				for _, o := range []string{"HA", "Hrho", "HLP"} {
					v := PaperTable1[filter][w][c][o]
					if v <= 0 {
						t.Fatalf("missing paper value for %d/%v/%s/%s", filter, w, c, o)
					}
				}
			}
		}
	}
	// Spot-check against the paper's Appendix D values.
	if PaperTable1[50][EqualWeights]["a"]["HA"] != 9.19 {
		t.Fatal("Table 1 transcription error at (50, equal, a, HA)")
	}
	if PaperTable1[30][RandomWeights]["d"]["Hrho"] != 0.93 {
		t.Fatal("Table 1 transcription error at (30, random, d, Hrho)")
	}
}

func TestRunLowerBoundTiny(t *testing.T) {
	tr := trace.DefaultConfig()
	tr.Ports = 6
	tr.NumCoflows = 5
	tr.MaxFlowSize = 6
	tr.Seed = 9
	res, err := RunLowerBound(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimeIndexedErr != "" {
		t.Fatalf("LP-EXP should fit at this scale: %s", res.TimeIndexedErr)
	}
	if res.IntervalLB > res.TimeIndexedLB+1e-6 {
		t.Fatalf("interval LB %g above LP-EXP %g", res.IntervalLB, res.TimeIndexedLB)
	}
	if res.TimeIndexedLB > res.ScheduleTotal+1e-6 {
		t.Fatalf("LP-EXP bound %g above schedule %g", res.TimeIndexedLB, res.ScheduleTotal)
	}
	if res.TimeIndexedRatio <= 0 || res.TimeIndexedRatio > 1 {
		t.Fatalf("ratio %g out of (0,1]", res.TimeIndexedRatio)
	}
	if !strings.Contains(res.Format(), "LP-EXP") {
		t.Fatal("Format missing LP-EXP line")
	}
}

func TestRunRejectsEmptyFilters(t *testing.T) {
	cfg := tinyConfig()
	cfg.Filters = nil
	if _, err := Run(cfg); err == nil {
		t.Fatal("empty filters accepted")
	}
	cfg = tinyConfig()
	cfg.Filters = []int{10_000}
	if _, err := Run(cfg); err == nil {
		t.Fatal("impossible filter accepted")
	}
}

// Results must be identical whatever the worker count, which is
// GOMAXPROCS.
func TestParallelismDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	b, err := Run(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Grids) != len(b.Grids) {
		t.Fatal("grid counts differ")
	}
	for i := range a.Grids {
		ga, gb := a.Grids[i], b.Grids[i]
		if ga.Filter != gb.Filter || ga.Weighting != gb.Weighting {
			t.Fatalf("grid order differs at %d", i)
		}
		for j := range ga.Cells {
			if ga.Cells[j] != gb.Cells[j] {
				t.Fatalf("cell %d/%d differs: %+v vs %+v", i, j, ga.Cells[j], gb.Cells[j])
			}
		}
	}
}
