package scenario

import (
	"slices"
	"testing"

	"coflow/internal/bvn"
	"coflow/internal/coflowmodel"
	"coflow/internal/matrix"
	"coflow/internal/obs"
	"coflow/internal/online"
)

// planInput is one transition of the planner as coflowd's -plan loop
// drives it: a registration's Add, a cancel's Shed then Plan, or a
// slot's Observe then Plan.
type planInput struct {
	op     Op // OpRegister, OpCancel, or "" for a served slot
	flows  []coflowmodel.Flow
	shed   []matrix.SparseEntry
	served []online.Assignment
}

// churnPlanInputs replays a seeded churn script through online.State
// under SEBF and records the planner transitions it produces. The
// script has the shape of the benchmark's replay-churn-plan workload:
// 64 ports, Pareto coflows at one per three slots, 30 % cancelled and
// re-registered, a probe every ten slots and two port outages.
func churnPlanInputs(b *testing.B) []planInput {
	b.Helper()
	const coflows, mean = 300, 3
	horizon := int64(coflows * mean)
	script, err := Generate(Config{
		Name: "plan-on-churn", Ports: 64, Coflows: coflows, Seed: 9,
		Arrival: Arrival{Kind: "poisson", Mean: mean},
		Shape:   Shape{Kind: "pareto", MaxFlowSize: 60, MaxWidth: 8},
		Churn:   Churn{CancelProb: 0.3, MeanDelay: 6, ReRegister: true, ProbeEvery: 10},
		Failures: []FailureWindow{
			{Port: 3, At: horizon / 5, RecoverAt: horizon/5 + 40},
			{Port: 17, At: horizon / 2, RecoverAt: horizon/2 + 60},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	state := online.NewState(script.Ports)
	var inputs []planInput
	events := script.Events
	ei, t := 0, int64(0)
	for state.Len() > 0 || ei < len(events) {
		s := t + 1
		if state.Len() == 0 && events[ei].Slot > s {
			s = events[ei].Slot
		}
		for ; ei < len(events) && events[ei].Slot <= s; ei++ {
			ev := events[ei]
			switch ev.Op {
			case OpRegister:
				if _, err := state.Add(ev.Key, 1, ev.Slot, ev.Flows); err != nil {
					b.Fatal(err)
				}
				inputs = append(inputs, planInput{op: OpRegister, flows: ev.Flows})
			case OpCancel:
				if _, live := state.Remaining(ev.Key); live {
					inputs = append(inputs, planInput{op: OpCancel, shed: state.Demand(ev.Key)})
					state.Remove(ev.Key)
				}
			case OpFail:
				if err := state.FailPort(ev.Port); err != nil {
					b.Fatal(err)
				}
			case OpRecover:
				if err := state.RecoverPort(ev.Port); err != nil {
					b.Fatal(err)
				}
			}
		}
		res := state.Step(s, online.SEBF)
		inputs = append(inputs, planInput{served: slices.Clone(res.Served)})
		t = s
	}
	return inputs
}

// BenchmarkPlanOnChurn measures online.Planner.Plan on the traffic the
// daemon's planner sees under churn, where most incremental Updates
// cannot shed the load delta and fall back to a cold decomposition.
// Each iteration replays the recorded transitions into a fresh
// Planner, planning once per slot and once per cancel as coflowd does.
// It reports ns/plan, the share of Update calls that fell back cold
// (fallbacks/update) and the share of plans that ran Algorithm 1 cold
// (cold/plan).
func BenchmarkPlanOnChurn(b *testing.B) {
	inputs := churnPlanInputs(b)
	o := bvn.NewObs(obs.NewRegistry())
	plans := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := online.NewPlanner(64)
		p.SetObs(o)
		b.StartTimer()
		for _, in := range inputs {
			var err error
			switch in.op {
			case OpRegister:
				err = p.Add(in.flows)
			case OpCancel:
				err = p.Shed(in.shed)
			default:
				err = p.Observe(in.served)
			}
			if err != nil {
				b.Fatal(err)
			}
			if in.op == OpRegister {
				continue // a registration only marks the next Plan cold
			}
			if _, err := p.Plan(); err != nil {
				b.Fatal(err)
			}
			plans++
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(plans), "ns/plan")
	b.ReportMetric(float64(o.UpdateFallbacks.Value())/float64(o.Updates.Value()), "fallbacks/update")
	b.ReportMetric(float64(o.Decomposes.Value())/float64(plans), "cold/plan")
}
