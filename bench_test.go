// The ablations of DESIGN.md whose number nothing else prints: the
// runtime of the two LP relaxations and of the two executors, and the
// matching count of the two BvN extraction rules. Every table, figure
// and quality comparison is a cmd/experiments subcommand, and every
// hot path's latency is a per-layer metric of the benchmark/ harness.
// "norm_total" is the total weighted completion time normalized by the
// H_LP case-(d) baseline (the paper's Table 1 normalization).
package coflow_test

import (
	"math/rand"
	"sync"
	"testing"

	"coflow"
	"coflow/internal/core"
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
