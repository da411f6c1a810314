//go:build slowcheck

package check

import (
	"testing"

	"coflow/internal/online"
	"coflow/internal/trace"
)

// Slowcheck runs the differential oracle at a scale the tier-1 suite
// cannot afford: larger fabrics, heavier traces, every policy, full
// state diffs every slot. Run with `make slowcheck` (or
// `go test -tags=slowcheck ./internal/check/`).

func slowTraceConfigs() []trace.Config {
	var cfgs []trace.Config
	for seed := int64(100); seed < 112; seed++ {
		cfgs = append(cfgs, trace.Config{
			Ports: 3 + int(seed%3)*5, NumCoflows: 40, Seed: seed,
			NarrowFraction: 0.5, WideFraction: 0.2,
			MaxFlowSize: 12, ParetoAlpha: 1.3, MeanInterarrival: 3,
		})
	}
	return cfgs
}

// TestSlowShadowSweep drives every policy over a dozen traces with
// arrivals and mid-run cancellations, diffing the full live state
// after every single slot.
func TestSlowShadowSweep(t *testing.T) {
	for _, cfg := range slowTraceConfigs() {
		ins := trace.MustGenerate(cfg)
		for _, policy := range []online.Policy{online.FIFO, online.SEBF, online.WSPT} {
			sh := NewShadow(ins.Ports, ShadowConfig{})
			removeKey := -1
			if cfg.Seed%2 == 0 {
				removeKey = len(ins.Coflows) / 3
			}
			driveShadow(t, sh, ins, policy, removeKey)
		}
	}
}

// TestSlowValidatedOnlineRuns recomputes the full post-hoc validation
// for complete online runs on the same traces: the emitted schedule,
// completions and objectives must certify under check.Schedule.
func TestSlowValidatedOnlineRuns(t *testing.T) {
	for _, cfg := range slowTraceConfigs()[:6] {
		ins := trace.MustGenerate(cfg)
		for _, policy := range []online.Policy{online.FIFO, online.SEBF, online.WSPT} {
			rec := recordOnlineRun(t, ins, policy)
			if vs := Schedule(ins, rec); vs != nil {
				t.Errorf("seed %d %v: %s", cfg.Seed, policy, kinds(vs))
			}
		}
	}
}

// TestSlowMonitorSweep replays the traces through the runtime Monitor
// with validation on every slot.
func TestSlowMonitorSweep(t *testing.T) {
	for _, cfg := range slowTraceConfigs()[:6] {
		ins := trace.MustGenerate(cfg)
		for _, policy := range []online.Policy{online.FIFO, online.SEBF, online.WSPT} {
			state := online.NewState(ins.Ports)
			mon := NewMonitor(ins.Ports)
			for k := range ins.Coflows {
				c := &ins.Coflows[k]
				rem, err := state.Add(k, c.Weight, c.Release, c.Flows)
				if err != nil {
					t.Fatal(err)
				}
				if rem > 0 {
					mon.Add(k, c.Release, c.Flows)
				}
			}
			var tt int64
			horizon := ins.Horizon() + 1
			for state.Len() > 0 && tt <= horizon {
				res := state.Step(tt+1, policy)
				if res.Active == 0 {
					tt = state.NextRelease(tt)
					continue
				}
				if vs := mon.Observe(res, true); vs != nil {
					t.Fatalf("seed %d %v slot %d: %v", cfg.Seed, policy, res.Slot, vs)
				}
				tt = res.Slot
			}
			if len(mon.coflows) != 0 {
				t.Fatalf("seed %d %v: monitor retains %d coflows", cfg.Seed, policy, len(mon.coflows))
			}
		}
	}
}
