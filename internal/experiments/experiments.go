// Package experiments regenerates every table and figure of the
// paper's evaluation (§4 and Appendix D) on the synthetic trace:
//
//   - Table 1: normalized total weighted completion times for the 12
//     algorithm combinations (3 orderings × 4 scheduling cases) under
//     three M0 filters and two weightings;
//   - Figure 2a: grouping/backfilling improvements relative to the
//     base case, per ordering (filter M0 ≥ 50, random weights);
//   - Figure 2b: ordering comparison with grouping and backfilling
//     (case (d)) for both weightings;
//   - the §4.2 lower-bound ratio: LP-EXP lower bound over the H_LP(d)
//     total (0.9447 in the paper).
//
// Normalization follows the paper exactly: every value is divided by
// the H_LP case-(d) total of the same filter and weighting.
package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"coflow/internal/coflowmodel"
	"coflow/internal/core"
	"coflow/internal/lpmodel"
	"coflow/internal/trace"
)

// Weighting selects the coflow weight assignment of §4.1.
type Weighting int

const (
	// EqualWeights gives every coflow weight 1.
	EqualWeights Weighting = iota
	// RandomWeights assigns a random permutation of {1..n}.
	RandomWeights
)

func (w Weighting) String() string {
	if w == EqualWeights {
		return "equal"
	}
	return "random"
}

// Case names the four scheduling-stage variants of §4.1.
var Cases = []string{"a", "b", "c", "d"}

// CaseOptions maps a case letter to grouping/backfilling flags.
func CaseOptions(c string) (grouping, backfill bool, err error) {
	switch c {
	case "a":
		return false, false, nil
	case "b":
		return false, true, nil
	case "c":
		return true, false, nil
	case "d":
		return true, true, nil
	}
	return false, false, fmt.Errorf("experiments: unknown case %q", c)
}

// Orderings evaluated, in the paper's column order.
var Orderings = []core.Ordering{core.OrderArrival, core.OrderLoadWeight, core.OrderLP}

// Config parameterizes a full experiment run.
type Config struct {
	// Trace configures the synthetic workload.
	Trace trace.Config
	// Filters are the M0 thresholds (paper: 50, 40, 30).
	Filters []int
	// WeightSeed seeds the random-permutation weighting.
	WeightSeed int64
	// Recompute enables the work-conserving extension in the
	// scheduling stage (off = paper-literal).
	Recompute bool
}

// parallel calls f(0), …, f(n−1) on GOMAXPROCS workers and waits for
// them all. Each call fills only its own pre-indexed slot, so results
// do not depend on the worker count; the errors of the calls that
// failed come back joined in index order.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(n, runtime.GOMAXPROCS(0)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// DefaultConfig runs at bench scale (50 ports); pass trace.DefaultConfig
// in Config.Trace for the paper-scale 150-port fabric.
func DefaultConfig() Config {
	return Config{
		Trace:      trace.BenchConfig(),
		Filters:    []int{50, 40, 30},
		WeightSeed: 7,
	}
}

// Cell is one algorithm's outcome on one instance.
type Cell struct {
	Ordering   core.Ordering
	Case       string
	Total      float64
	Normalized float64 // Total / (H_LP case-d Total)
}

// Grid is the 12-cell block for one (filter, weighting) pair.
type Grid struct {
	Filter    int
	Weighting Weighting
	Coflows   int
	Cells     []Cell
	// LPLowerBound is the interval LP bound for this instance.
	LPLowerBound float64
}

// Cell returns the cell for (ordering, case); nil if absent.
func (g *Grid) Cell(o core.Ordering, c string) *Cell {
	for i := range g.Cells {
		if g.Cells[i].Ordering == o && g.Cells[i].Case == c {
			return &g.Cells[i]
		}
	}
	return nil
}

// Report holds every grid of a run.
type Report struct {
	Config Config
	Grids  []Grid
}

// Grid returns the grid for (filter, weighting); nil if absent.
func (r *Report) Grid(filter int, w Weighting) *Grid {
	for i := range r.Grids {
		if r.Grids[i].Filter == filter && r.Grids[i].Weighting == w {
			return &r.Grids[i]
		}
	}
	return nil
}

// Run generates the workload and evaluates all 12 algorithm
// combinations for every (filter, weighting) pair.
func Run(cfg Config) (*Report, error) {
	if len(cfg.Filters) == 0 {
		return nil, fmt.Errorf("experiments: no filters configured")
	}
	base, err := trace.Generate(cfg.Trace)
	if err != nil {
		return nil, err
	}
	report := &Report{Config: cfg}
	var insts []*coflowmodel.Instance
	for _, filter := range cfg.Filters {
		for _, weighting := range []Weighting{EqualWeights, RandomWeights} {
			ins := base.FilterMinFlows(filter)
			if len(ins.Coflows) == 0 {
				return nil, fmt.Errorf("experiments: filter M0 >= %d leaves no coflows (trace too small)", filter)
			}
			applyWeighting(ins, weighting, cfg.WeightSeed)
			insts = append(insts, ins)
			report.Grids = append(report.Grids, Grid{Filter: filter, Weighting: weighting, Coflows: len(ins.Coflows),
				Cells: make([]Cell, len(Orderings)*len(Cases))})
		}
	}

	// Each grid computes its orderings once (one LP solve, shared by
	// the four cases); then every cell of every grid is one
	// independent execution over its grid's read-only instance.
	orders := make([][][]int, len(insts))
	err = parallel(len(insts), func(g int) error {
		for _, o := range Orderings {
			order, sol, err := core.Order(insts[g], o)
			if err != nil {
				return err
			}
			orders[g] = append(orders[g], order)
			if sol != nil {
				report.Grids[g].LPLowerBound = sol.LowerBound
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cells := len(Orderings) * len(Cases)
	err = parallel(len(insts)*cells, func(i int) error {
		g, oi, c := i/cells, i%cells/len(Cases), Cases[i%len(Cases)]
		grouping, backfill, err := CaseOptions(c)
		if err != nil {
			return err
		}
		res, err := core.ExecuteOrdered(insts[g], orders[g][oi], core.Options{
			Grouping: grouping, Backfill: backfill, Recompute: cfg.Recompute,
		})
		if err != nil {
			return err
		}
		report.Grids[g].Cells[i%cells] = Cell{Ordering: Orderings[oi], Case: c, Total: res.TotalWeighted}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for g := range report.Grids {
		grid := &report.Grids[g]
		baseline := grid.Cell(core.OrderLP, "d").Total
		if baseline <= 0 {
			return nil, fmt.Errorf("experiments: degenerate baseline %g", baseline)
		}
		for i := range grid.Cells {
			grid.Cells[i].Normalized = grid.Cells[i].Total / baseline
		}
	}
	return report, nil
}

func applyWeighting(ins *coflowmodel.Instance, w Weighting, seed int64) {
	switch w {
	case EqualWeights:
		ins.SetEqualWeights()
	case RandomWeights:
		ins.SetRandomPermutationWeights(rand.New(rand.NewSource(seed)))
	}
}

// PaperTable1 holds the published normalized totals of Table 1,
// indexed [filter][weighting][case][ordering].
var PaperTable1 = map[int]map[Weighting]map[string]map[string]float64{
	50: {
		EqualWeights: {
			"a": {"HA": 9.19, "Hrho": 1.41, "HLP": 1.44},
			"b": {"HA": 8.95, "Hrho": 1.30, "HLP": 1.34},
			"c": {"HA": 7.99, "Hrho": 1.01, "HLP": 1.04},
			"d": {"HA": 7.79, "Hrho": 0.97, "HLP": 1.00},
		},
		RandomWeights: {
			"a": {"HA": 6.78, "Hrho": 1.31, "HLP": 1.33},
			"b": {"HA": 6.56, "Hrho": 1.22, "HLP": 1.23},
			"c": {"HA": 5.91, "Hrho": 0.96, "HLP": 1.04},
			"d": {"HA": 5.81, "Hrho": 0.92, "HLP": 1.00},
		},
	},
	40: {
		EqualWeights: {
			"a": {"HA": 10.14, "Hrho": 1.46, "HLP": 1.49},
			"b": {"HA": 9.86, "Hrho": 1.34, "HLP": 1.37},
			"c": {"HA": 8.80, "Hrho": 1.01, "HLP": 1.04},
			"d": {"HA": 8.61, "Hrho": 0.97, "HLP": 1.00},
		},
		RandomWeights: {
			"a": {"HA": 7.44, "Hrho": 1.36, "HLP": 1.40},
			"b": {"HA": 7.24, "Hrho": 1.27, "HLP": 1.27},
			"c": {"HA": 6.40, "Hrho": 0.96, "HLP": 1.04},
			"d": {"HA": 6.30, "Hrho": 0.93, "HLP": 1.00},
		},
	},
	30: {
		EqualWeights: {
			"a": {"HA": 10.25, "Hrho": 1.49, "HLP": 1.51},
			"b": {"HA": 9.98, "Hrho": 1.37, "HLP": 1.40},
			"c": {"HA": 8.86, "Hrho": 1.01, "HLP": 1.04},
			"d": {"HA": 8.68, "Hrho": 0.97, "HLP": 1.00},
		},
		RandomWeights: {
			"a": {"HA": 8.18, "Hrho": 1.40, "HLP": 1.44},
			"b": {"HA": 7.77, "Hrho": 1.30, "HLP": 1.30},
			"c": {"HA": 7.04, "Hrho": 0.97, "HLP": 1.04},
			"d": {"HA": 6.89, "Hrho": 0.93, "HLP": 1.00},
		},
	},
}

// PaperLowerBoundRatio is the §4.2 figure: LP-EXP bound / H_LP(d).
const PaperLowerBoundRatio = 0.9447

// FormatTable1 renders the measured grids next to the paper's Table 1.
func (r *Report) FormatTable1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — normalized total weighted completion times (baseline: HLP case (d))\n")
	fmt.Fprintf(&b, "%-10s %-5s %-7s %9s %9s %9s   %9s %9s %9s\n",
		"filter", "case", "weights", "HA", "Hrho", "HLP", "HA*", "Hrho*", "HLP*")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 92))
	for _, g := range r.Grids {
		for _, c := range Cases {
			fmt.Fprintf(&b, "M0>=%-6d (%s)   %-7s", g.Filter, c, g.Weighting)
			for _, o := range Orderings {
				cell := g.Cell(o, c)
				fmt.Fprintf(&b, " %9.2f", cell.Normalized)
			}
			b.WriteString("  ")
			for _, o := range Orderings {
				ref := paperRef(g.Filter, g.Weighting, c, o)
				if ref > 0 {
					fmt.Fprintf(&b, " %9.2f", ref)
				} else {
					fmt.Fprintf(&b, " %9s", "-")
				}
			}
			b.WriteByte('\n')
		}
	}
	b.WriteString("(* = values published in the paper; measured values use the synthetic trace)\n")
	return b.String()
}

func paperRef(filter int, w Weighting, c string, o core.Ordering) float64 {
	if byW, ok := PaperTable1[filter]; ok {
		if byC, ok := byW[w]; ok {
			if byO, ok := byC[c]; ok {
				return byO[o.String()]
			}
		}
	}
	return 0
}

// Fig2aRow is one ordering's bars in Figure 2a: total weighted
// completion time of each case as a percentage of the base case (a).
type Fig2aRow struct {
	Ordering core.Ordering
	Percent  map[string]float64 // case → percent of case (a)
}

// Fig2a computes Figure 2a from the report: filter = first configured
// filter, random weights.
func (r *Report) Fig2a() ([]Fig2aRow, error) {
	g := r.Grid(r.Config.Filters[0], RandomWeights)
	if g == nil {
		return nil, fmt.Errorf("experiments: missing grid for fig2a")
	}
	var rows []Fig2aRow
	for _, o := range Orderings {
		base := g.Cell(o, "a").Total
		row := Fig2aRow{Ordering: o, Percent: map[string]float64{}}
		for _, c := range Cases {
			row.Percent[c] = 100 * g.Cell(o, c).Total / base
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatFig2a renders Figure 2a as a text table.
func (r *Report) FormatFig2a() (string, error) {
	rows, err := r.Fig2a()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2a — percent of base case (M0>=%d, random weights)\n", r.Config.Filters[0])
	fmt.Fprintf(&b, "%-6s %8s %8s %8s %8s\n", "order", "(a)", "(b)", "(c)", "(d)")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-6s", row.Ordering)
		for _, c := range Cases {
			fmt.Fprintf(&b, " %7.2f%%", row.Percent[c])
		}
		b.WriteByte('\n')
	}
	b.WriteString("(paper: grouping reduces up to 27.19%, backfilling up to 8.68%; (d) is best)\n")
	return b.String(), nil
}

// Fig2bCell is one bar of Figure 2b: case (d) totals normalized to
// HLP(d) per weighting.
type Fig2bCell struct {
	Ordering   core.Ordering
	Weighting  Weighting
	Normalized float64
}

// Fig2b computes Figure 2b from the report (first filter).
func (r *Report) Fig2b() ([]Fig2bCell, error) {
	var out []Fig2bCell
	for _, w := range []Weighting{EqualWeights, RandomWeights} {
		g := r.Grid(r.Config.Filters[0], w)
		if g == nil {
			return nil, fmt.Errorf("experiments: missing grid for fig2b")
		}
		for _, o := range Orderings {
			out = append(out, Fig2bCell{Ordering: o, Weighting: w,
				Normalized: g.Cell(o, "d").Normalized})
		}
	}
	return out, nil
}

// FormatFig2b renders Figure 2b as a text table.
func (r *Report) FormatFig2b() (string, error) {
	cells, err := r.Fig2b()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2b — case (d) totals normalized to HLP(d) (M0>=%d)\n", r.Config.Filters[0])
	fmt.Fprintf(&b, "%-8s %8s %8s %8s\n", "weights", "HA", "Hrho", "HLP")
	for _, w := range []Weighting{EqualWeights, RandomWeights} {
		fmt.Fprintf(&b, "%-8s", w)
		for _, o := range Orderings {
			for _, c := range cells {
				if c.Ordering == o && c.Weighting == w {
					fmt.Fprintf(&b, " %8.2f", c.Normalized)
				}
			}
		}
		b.WriteByte('\n')
	}
	b.WriteString("(paper: Hrho and HLP beat HA by up to 8.05x and 7.79x; Hrho slightly ahead)\n")
	return b.String(), nil
}

// LowerBoundResult compares lower bounds with the H_LP(d) schedule on
// one instance (reduced scale so LP-EXP is tractable).
type LowerBoundResult struct {
	Coflows          int
	ScheduleTotal    float64 // H_LP case (d)
	IntervalLB       float64
	TimeIndexedLB    float64 // 0 when skipped
	IntervalRatio    float64
	TimeIndexedRatio float64
	TimeIndexedErr   string
}

// RunLowerBound reproduces the §4.2 lower-bound comparison on a
// reduced-scale instance: the ratio LP-EXP / HLP(d) (paper: 0.9447).
func RunLowerBound(tr trace.Config, weightSeed int64) (*LowerBoundResult, error) {
	ins, err := trace.Generate(tr)
	if err != nil {
		return nil, err
	}
	ins.SetRandomPermutationWeights(rand.New(rand.NewSource(weightSeed)))
	res, err := core.Schedule(ins, core.Options{Ordering: core.OrderLP, Grouping: true, Backfill: true})
	if err != nil {
		return nil, err
	}
	out := &LowerBoundResult{
		Coflows:       len(ins.Coflows),
		ScheduleTotal: res.TotalWeighted,
		IntervalLB:    res.LP.LowerBound,
	}
	out.IntervalRatio = out.IntervalLB / out.ScheduleTotal
	tsol, err := lpmodel.SolveTimeIndexedLP(ins)
	if err != nil {
		out.TimeIndexedErr = err.Error()
	} else {
		out.TimeIndexedLB = tsol.LowerBound
		out.TimeIndexedRatio = out.TimeIndexedLB / out.ScheduleTotal
	}
	return out, nil
}

// Format renders the lower-bound comparison.
func (l *LowerBoundResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Lower bounds vs HLP(d) schedule (%d coflows)\n", l.Coflows)
	fmt.Fprintf(&b, "  HLP(d) total weighted completion: %.0f\n", l.ScheduleTotal)
	fmt.Fprintf(&b, "  interval LP bound:    %.0f (ratio %.4f)\n", l.IntervalLB, l.IntervalRatio)
	if l.TimeIndexedErr != "" {
		fmt.Fprintf(&b, "  LP-EXP bound: skipped (%s)\n", l.TimeIndexedErr)
	} else {
		fmt.Fprintf(&b, "  LP-EXP bound:         %.0f (ratio %.4f; paper reports %.4f)\n",
			l.TimeIndexedLB, l.TimeIndexedRatio, PaperLowerBoundRatio)
	}
	return b.String()
}
