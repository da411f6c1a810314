package lpmodel

// The local profiling entry point for the interval LP: the production
// (sparse) solver at m=100, the scale ROADMAP's resident-solver item is
// measured at. The gated number is the harness's lpmodel.solve_ms.

import (
	"testing"

	"coflow/internal/trace"
)

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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveIntervalLP(ins); err != nil {
			b.Fatal(err)
		}
	}
}
