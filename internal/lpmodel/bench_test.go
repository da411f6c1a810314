package lpmodel

// The local profiling entry points for the interval LP: the production
// (sparse) solver at batch-lp's shape and at m=100, the scale ROADMAP's
// resident-solver item is measured at. The gated number is the
// harness's lpmodel.solve_ms.

import (
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/trace"
)

// benchSolve solves ins b.N times through the production entry point
// and reports allocations and pivots per solve.
func benchSolve(b *testing.B, ins *coflowmodel.Instance) {
	b.ReportAllocs()
	b.ResetTimer()
	pivots := 0
	for i := 0; i < b.N; i++ {
		sol, err := SolveIntervalLP(ins)
		if err != nil {
			b.Fatal(err)
		}
		pivots += sol.Iterations
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}

// BenchmarkLPSolveSparse50 solves the first instance of batch-lp's
// pool at seed 9: 50 ports, 100 coflows, permutation weights.
func BenchmarkLPSolveSparse50(b *testing.B) {
	benchSolve(b, generated(50, 100, 9*1_000_003, 0))
}

// BenchmarkLPSolveSparse100 solves a pinned trace: 100 ports, 2
// coflows per port, seed 9, default size mix.
func BenchmarkLPSolveSparse100(b *testing.B) {
	cfg := trace.DefaultConfig()
	cfg.Ports = 100
	cfg.NumCoflows = 200
	cfg.Seed = 9
	ins, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchSolve(b, ins)
}
