// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations for the design choices called out in
// DESIGN.md. Custom metrics report the scheduling quality alongside
// the runtime: "norm_total" is the total weighted completion time
// normalized by the H_LP case-(d) baseline (the paper's Table 1
// normalization), and "lb_ratio" is lower-bound/schedule.
package coflow_test

import (
	"math/rand"
	"sync"
	"testing"

	"coflow"
	"coflow/internal/core"
	"coflow/internal/experiments"
	"coflow/internal/switchsim"
	"coflow/internal/trace"
)

// benchInstance is the shared bench-scale workload (50 ports), built
// once: the M0 ≥ 50 filtered instance with random-permutation weights,
// matching the paper's headline configuration.
var benchInstance = sync.OnceValue(func() *coflow.Instance {
	ins := trace.MustGenerate(trace.BenchConfig()).FilterMinFlows(50)
	ins.SetRandomPermutationWeights(rand.New(rand.NewSource(7)))
	return ins
})

// benchBaseline is the H_LP(d) total on benchInstance, the paper's
// normalization denominator.
var benchBaseline = sync.OnceValue(func() float64 {
	res, err := coflow.Schedule(benchInstance(), coflow.Options{
		Ordering: coflow.OrderLP, Grouping: true, Backfill: true,
	})
	if err != nil {
		panic(err)
	}
	return res.TotalWeighted
})

func benchGridConfig(filter int) experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Filters = []int{filter}
	return cfg
}

// benchTable1 regenerates one filter block of Table 1 (both
// weightings, all 12 algorithms) per iteration.
func benchTable1(b *testing.B, filter int) {
	b.Helper()
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.Run(benchGridConfig(filter))
		if err != nil {
			b.Fatal(err)
		}
	}
	g := rep.Grid(filter, experiments.RandomWeights)
	b.ReportMetric(g.Cell(coflow.OrderArrival, "a").Normalized, "HA_a_norm")
	b.ReportMetric(g.Cell(coflow.OrderLoadWeight, "d").Normalized, "Hrho_d_norm")
}

func BenchmarkTable1_M0geq50(b *testing.B) { benchTable1(b, 50) }
func BenchmarkTable1_M0geq40(b *testing.B) { benchTable1(b, 40) }
func BenchmarkTable1_M0geq30(b *testing.B) { benchTable1(b, 30) }

// BenchmarkFig2a regenerates Figure 2a: grouping/backfilling impact
// relative to the base case for each ordering.
func BenchmarkFig2a(b *testing.B) {
	var rows []experiments.Fig2aRow
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(benchGridConfig(50))
		if err != nil {
			b.Fatal(err)
		}
		rows, err = rep.Fig2a()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range rows {
		if row.Ordering == coflow.OrderLP {
			b.ReportMetric(row.Percent["c"], "HLP_grouping_pct")
			b.ReportMetric(row.Percent["d"], "HLP_both_pct")
		}
	}
}

// BenchmarkFig2b regenerates Figure 2b: the ordering comparison in
// case (d) for both weightings.
func BenchmarkFig2b(b *testing.B) {
	var cells []experiments.Fig2bCell
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(benchGridConfig(50))
		if err != nil {
			b.Fatal(err)
		}
		cells, err = rep.Fig2b()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		if c.Ordering == coflow.OrderArrival && c.Weighting == experiments.RandomWeights {
			b.ReportMetric(c.Normalized, "HA_over_HLP")
		}
	}
}

// BenchmarkLowerBound regenerates the §4.2 comparison: LP-EXP lower
// bound versus the H_LP(d) schedule (paper: ratio 0.9447), at reduced
// scale so the time-indexed LP is tractable.
func BenchmarkLowerBound(b *testing.B) {
	tr := trace.DefaultConfig()
	tr.Ports = 8
	tr.NumCoflows = 8
	tr.MaxFlowSize = 8
	tr.Seed = 5
	var res *experiments.LowerBoundResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.RunLowerBound(tr, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.TimeIndexedErr != "" {
		b.Fatal(res.TimeIndexedErr)
	}
	b.ReportMetric(res.TimeIndexedRatio, "lb_ratio")
	b.ReportMetric(res.IntervalRatio, "interval_lb_ratio")
}

// BenchmarkAlgorithm2 measures the paper's deterministic algorithm
// end-to-end (LP solve + grouping + BvN execution).
func BenchmarkAlgorithm2(b *testing.B) {
	ins := benchInstance()
	var res *coflow.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = coflow.Algorithm2(ins)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TotalWeighted/benchBaseline(), "norm_total")
}

// BenchmarkRandomized measures the randomized variant; quality is the
// mean over iterations.
func BenchmarkRandomized(b *testing.B) {
	ins := benchInstance()
	rng := rand.New(rand.NewSource(99))
	var sum float64
	for i := 0; i < b.N; i++ {
		res, err := coflow.Randomized(ins, rng)
		if err != nil {
			b.Fatal(err)
		}
		sum += res.TotalWeighted
	}
	b.ReportMetric(sum/float64(b.N)/benchBaseline(), "norm_total")
}

// --- Ablations (DESIGN.md §ablation) --------------------------------

func benchOption(b *testing.B, opts coflow.Options) {
	b.Helper()
	ins := benchInstance()
	var res *coflow.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = coflow.Schedule(ins, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TotalWeighted/benchBaseline(), "norm_total")
}

// Ablation 1: grouping on/off (H_ρ ordering, no backfill).
func BenchmarkAblationGroupingOff(b *testing.B) {
	benchOption(b, coflow.Options{Ordering: coflow.OrderLoadWeight})
}
func BenchmarkAblationGroupingOn(b *testing.B) {
	benchOption(b, coflow.Options{Ordering: coflow.OrderLoadWeight, Grouping: true})
}

// Ablation 2: backfilling on/off (H_ρ ordering, grouping on).
func BenchmarkAblationBackfillOff(b *testing.B) {
	benchOption(b, coflow.Options{Ordering: coflow.OrderLoadWeight, Grouping: true})
}
func BenchmarkAblationBackfillOn(b *testing.B) {
	benchOption(b, coflow.Options{Ordering: coflow.OrderLoadWeight, Grouping: true, Backfill: true})
}

// Ablation 3: the three orderings under the best scheduling case (d).
func BenchmarkAblationOrderingHA(b *testing.B) {
	benchOption(b, coflow.Options{Ordering: coflow.OrderArrival, Grouping: true, Backfill: true})
}
func BenchmarkAblationOrderingHrho(b *testing.B) {
	benchOption(b, coflow.Options{Ordering: coflow.OrderLoadWeight, Grouping: true, Backfill: true})
}
func BenchmarkAblationOrderingHLP(b *testing.B) {
	benchOption(b, coflow.Options{Ordering: coflow.OrderLP, Grouping: true, Backfill: true})
}

// Ablation 4: paper-literal schedules versus the work-conserving
// Recompute extension.
func BenchmarkAblationStrictLiteral(b *testing.B) {
	benchOption(b, coflow.Options{Ordering: coflow.OrderLP, Grouping: true, Backfill: true})
}
func BenchmarkAblationRecompute(b *testing.B) {
	benchOption(b, coflow.Options{Ordering: coflow.OrderLP, Grouping: true, Backfill: true, Recompute: true})
}

// Ablation 5: LP granularity — interval-indexed (polynomial) versus
// time-indexed (pseudo-polynomial) relaxations on a small instance.
func BenchmarkAblationLPGranularityInterval(b *testing.B) {
	ins := lpAblationInstance()
	for i := 0; i < b.N; i++ {
		if _, err := coflow.LowerBound(ins); err != nil {
			b.Fatal(err)
		}
	}
}
func BenchmarkAblationLPGranularityTimeIndexed(b *testing.B) {
	ins := lpAblationInstance()
	for i := 0; i < b.N; i++ {
		if _, err := coflow.TimeIndexedLowerBound(ins); err != nil {
			b.Fatal(err)
		}
	}
}

var lpAblationInstance = sync.OnceValue(func() *coflow.Instance {
	tr := trace.DefaultConfig()
	tr.Ports = 8
	tr.NumCoflows = 6
	tr.MaxFlowSize = 8
	tr.Seed = 2
	return trace.MustGenerate(tr)
})

// Ablation 6: block-accelerated executor versus the slot-accurate
// reference simulator.
func benchExecutor(b *testing.B, exec func(*switchsim.Plan) (*switchsim.Result, error)) {
	b.Helper()
	ins := benchInstance()
	order := core.LoadWeightOrder(ins)
	plan := &switchsim.Plan{
		Ins: ins, Order: order,
		Stages:   switchsim.OneStage(len(order)),
		Backfill: true,
	}
	for i := 0; i < b.N; i++ {
		if _, err := exec(plan); err != nil {
			b.Fatal(err)
		}
	}
}
func BenchmarkAblationSimulatorBlock(b *testing.B) { benchExecutor(b, switchsim.Execute) }
func BenchmarkAblationSimulatorSlot(b *testing.B) {
	benchExecutor(b, func(plan *switchsim.Plan) (*switchsim.Result, error) {
		res, _, err := switchsim.ExecuteRecorded(plan)
		return res, err
	})
}

// --- Extension algorithms (beyond the paper's evaluated set) --------

// BenchmarkExtensionFluid measures the Varys-style rate-based
// scheduler on the bench workload.
func BenchmarkExtensionFluid(b *testing.B) {
	ins := benchInstance()
	var res *coflow.FluidResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = coflow.FluidSchedule(ins)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TotalWeighted/benchBaseline(), "norm_total")
}

// BenchmarkExtensionOnlineSEBF measures the per-slot online greedy
// scheduler.
func BenchmarkExtensionOnlineSEBF(b *testing.B) {
	ins := benchInstance()
	var res *coflow.OnlineResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = coflow.OnlineSchedule(ins, coflow.OnlineSEBF)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TotalWeighted/benchBaseline(), "norm_total")
}

// BenchmarkExtensionPrimalDual measures the LP-free primal-dual
// ordering with the paper's best scheduling stage (case d).
func BenchmarkExtensionPrimalDual(b *testing.B) {
	ins := benchInstance()
	var res *coflow.Result
	for i := 0; i < b.N; i++ {
		order := coflow.PrimalDualOrder(ins)
		var err error
		res, err = coflow.ScheduleOrdered(ins, order, coflow.Options{Grouping: true, Backfill: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TotalWeighted/benchBaseline(), "norm_total")
}

// Ablation 7: BvN matching extraction — the paper's first-fit rule vs
// the bottleneck ("thick") rule; "matchings" counts fabric
// reconfigurations.
func benchStrategy(b *testing.B, thick bool) {
	b.Helper()
	ins := benchInstance()
	var res *coflow.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = coflow.Schedule(ins, coflow.Options{
			Ordering: coflow.OrderLoadWeight, Grouping: true, Backfill: true,
			ThickMatchings: thick,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Matchings), "matchings")
	b.ReportMetric(res.TotalWeighted/benchBaseline(), "norm_total")
}
func BenchmarkAblationMatchingFirst(b *testing.B) { benchStrategy(b, false) }
func BenchmarkAblationMatchingThick(b *testing.B) { benchStrategy(b, true) }

// BenchmarkArrivalSweep exercises the release-date machinery: the
// Theorem 1 setting the paper's own experiments leave out.
func BenchmarkArrivalSweep(b *testing.B) {
	tr := trace.DefaultConfig()
	tr.Ports = 24
	tr.NumCoflows = 30
	tr.MaxFlowSize = 100
	var rep *experiments.ArrivalReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.RunArrivalSweep(tr, []float64{0, 8, 64}, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pt := range rep.Points {
		if !pt.Prop1Satisfied {
			b.Fatal("Proposition 1 violated")
		}
	}
	b.ReportMetric(rep.Points[0].Totals["Algorithm2"]/rep.Points[0].Totals["online-SEBF"], "alg2_over_sebf")
}

// BenchmarkScalingSweep regenerates the size sweep (ratios to the LP
// lower bound as the coflow count grows).
func BenchmarkScalingSweep(b *testing.B) {
	tr := trace.DefaultConfig()
	tr.Ports = 20
	tr.NumCoflows = 32
	tr.MaxFlowSize = 100
	var rep *experiments.ScalingReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.RunScaling(tr, []int{8, 16, 32}, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rep.Points[len(rep.Points)-1]
	b.ReportMetric(last.Ratio("HLP(d)"), "hlp_over_lb")
	b.ReportMetric(last.Ratio("online-SEBF"), "sebf_over_lb")
}
