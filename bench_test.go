// The ablation of DESIGN.md whose number nothing else prints: the
// runtime of the two LP relaxations. Every table, figure and quality
// comparison is a cmd/experiments subcommand, every hot path's latency
// is a per-layer metric of the benchmark/ harness, and the executor's
// recorded path is timed against its slot-by-slot oracle in
// internal/switchsim (BenchmarkExecuteRecorded, BenchmarkSlotOracle).
package coflow_test

import (
	"sync"
	"testing"

	"coflow"
	"coflow/internal/trace"
)

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
