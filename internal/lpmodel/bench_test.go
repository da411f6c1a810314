package lpmodel

// LP solve-time benchmarks across fabric sizes. These feed the `make
// bench` regression gate (substring LPSolve). The Sparse rows time the
// production solver; Dense10 is the one reference-tableau row — at
// m=100 the tableau runs seconds per solve, and a gate has no use for
// the oracle's speed.

import (
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/lp"
	"coflow/internal/trace"
)

// benchInstance pins the trace the LPSolve benches share at each size:
// 2 coflows per port, seed 9, default size mix.
func benchInstance(b *testing.B, ports int) *coflowmodel.Instance {
	b.Helper()
	cfg := trace.DefaultConfig()
	cfg.Ports = ports
	cfg.NumCoflows = 2 * ports
	cfg.Seed = 9
	ins, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ins
}

func benchLPSolve(b *testing.B, ports int, method lp.Method) {
	ins := benchInstance(b, ports)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveIntervalLPWith(ins, method); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPSolveDense10(b *testing.B)   { benchLPSolve(b, 10, lp.MethodDense) }
func BenchmarkLPSolveSparse10(b *testing.B)  { benchLPSolve(b, 10, lp.MethodSparse) }
func BenchmarkLPSolveSparse50(b *testing.B)  { benchLPSolve(b, 50, lp.MethodSparse) }
func BenchmarkLPSolveSparse100(b *testing.B) { benchLPSolve(b, 100, lp.MethodSparse) }
