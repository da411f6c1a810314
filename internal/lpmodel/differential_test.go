package lpmodel

// The real-instance half of the sparse-vs-dense differential sweep
// (the random-LP half lives in internal/lp): generated coflow
// instances across fabric sizes, coflow counts, and release-date
// regimes, solved with the production solver and the dense oracle. The LP
// objective (the paper's lower bound) must agree to tolerance; both
// paths must verify feasible. Orderings may legitimately differ under
// degenerate alternate optima, so the golden tests — not this sweep —
// pin them.

import (
	"math"
	"testing"

	"coflow/internal/lp"
	"coflow/internal/lp/dense"
	"coflow/internal/trace"
)

func sweepConfigs(short bool) []trace.Config {
	ms := []int{2, 4, 6, 10, 16}
	ns := []int{1, 2, 4, 8, 12, 20}
	releases := []float64{0, 2.5, 10}
	seeds := []int64{1, 2}
	if short {
		ms = []int{4, 10}
		ns = []int{2, 8}
		seeds = []int64{1}
	}
	var cfgs []trace.Config
	for _, m := range ms {
		for _, n := range ns {
			for _, rel := range releases {
				for _, seed := range seeds {
					cfg := trace.DefaultConfig()
					cfg.Ports = m
					cfg.NumCoflows = n
					cfg.Seed = seed
					cfg.MeanInterarrival = rel
					cfg.MaxFlowSize = 100
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	return cfgs
}

// TestIntervalLPSparseVsDenseSweep covers 180 real interval-LP
// instances (plus the time-indexed sweep below, completing the
// 1000-instance differential budget with internal/lp's random half).
func TestIntervalLPSparseVsDenseSweep(t *testing.T) {
	cfgs := sweepConfigs(testing.Short())
	for _, cfg := range cfgs {
		ins := trace.MustGenerate(cfg)
		ref, err := SolveIntervalLPWith(ins, dense.Solve)
		if err != nil {
			t.Fatalf("m=%d n=%d rel=%g seed=%d: dense: %v",
				cfg.Ports, cfg.NumCoflows, cfg.MeanInterarrival, cfg.Seed, err)
		}
		sparse, err := SolveIntervalLPWith(ins, lp.MethodSparse)
		if err != nil {
			t.Fatalf("m=%d n=%d rel=%g seed=%d: sparse: %v",
				cfg.Ports, cfg.NumCoflows, cfg.MeanInterarrival, cfg.Seed, err)
		}
		diff := math.Abs(ref.LowerBound - sparse.LowerBound)
		if diff > 1e-6*(1+math.Abs(ref.LowerBound)) {
			t.Fatalf("m=%d n=%d rel=%g seed=%d: lower bound diverged: dense=%.12g sparse=%.12g",
				cfg.Ports, cfg.NumCoflows, cfg.MeanInterarrival, cfg.Seed,
				ref.LowerBound, sparse.LowerBound)
		}
		if len(sparse.Order) != len(ref.Order) {
			t.Fatalf("m=%d n=%d: order lengths differ", cfg.Ports, cfg.NumCoflows)
		}
	}
}

// TestTimeIndexedLPSparseVsDenseSweep does the same for (LP-EXP) on
// instances small enough for its pseudo-polynomial size.
func TestTimeIndexedLPSparseVsDenseSweep(t *testing.T) {
	count := 20
	if testing.Short() {
		count = 5
	}
	for i := 0; i < count; i++ {
		cfg := trace.DefaultConfig()
		cfg.Ports = 2 + i%4
		cfg.NumCoflows = 1 + i%5
		cfg.Seed = int64(100 + i)
		cfg.MaxFlowSize = 20
		if i%2 == 1 {
			cfg.MeanInterarrival = 3
		}
		ins := trace.MustGenerate(cfg)
		ref, err := solveTimeIndexedLP(ins, dense.Solve)
		if err != nil {
			t.Fatalf("instance %d: dense: %v", i, err)
		}
		sparse, err := solveTimeIndexedLP(ins, lp.MethodSparse)
		if err != nil {
			t.Fatalf("instance %d: sparse: %v", i, err)
		}
		diff := math.Abs(ref.LowerBound - sparse.LowerBound)
		if diff > 1e-6*(1+math.Abs(ref.LowerBound)) {
			t.Fatalf("instance %d: LP-EXP bound diverged: dense=%.12g sparse=%.12g",
				i, ref.LowerBound, sparse.LowerBound)
		}
	}
}
