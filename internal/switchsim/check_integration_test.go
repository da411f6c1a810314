// Package switchsim_test wires the internal/check validator into the
// executor's test suite: every recorded schedule the executor emits —
// any order, any stage partition, backfill or not —
// must certify against the paper's feasibility invariants. The test
// lives in an external package because check imports switchsim.
package switchsim_test

import (
	"math/rand"
	"testing"

	"coflow/internal/check"
	"coflow/internal/switchsim"
	"coflow/internal/trace"
)

func randomPlanStages(rng *rand.Rand, n int) []switchsim.Stage {
	var stages []switchsim.Stage
	start := 0
	for start < n {
		end := start + 1 + rng.Intn(n-start)
		stages = append(stages, switchsim.Stage{Start: start, End: end})
		start = end
	}
	return stages
}

func TestRecordedSchedulesValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		ins := trace.MustGenerate(trace.Config{
			Ports: 2 + rng.Intn(4), NumCoflows: 2 + rng.Intn(6), Seed: rng.Int63(),
			NarrowFraction: 0.5, WideFraction: 0.2,
			MaxFlowSize: 5, ParetoAlpha: 1.3, MeanInterarrival: float64(rng.Intn(3)),
		})
		n := len(ins.Coflows)
		plan := &switchsim.Plan{
			Ins:       ins,
			Order:     rng.Perm(n),
			Stages:    randomPlanStages(rng, n),
			Backfill:  rng.Intn(2) == 0,
			Recompute: rng.Intn(2) == 0,
		}
		res, tr, err := switchsim.ExecuteRecorded(plan)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if vs := check.Schedule(ins, check.FromTranscript(tr, res)); vs != nil {
			t.Errorf("trial %d (backfill=%v recompute=%v stages=%d): %d violations, first: %v",
				trial, plan.Backfill, plan.Recompute, len(plan.Stages), len(vs), vs[0])
		}
	}
}
