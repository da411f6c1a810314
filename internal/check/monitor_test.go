package check

import (
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/online"
	"coflow/internal/trace"
)

// TestMonitorCleanRun: every slot of a real online run validates
// clean, and the monitor drains to empty alongside the scheduler.
func TestMonitorCleanRun(t *testing.T) {
	ins := trace.MustGenerate(trace.Config{
		Ports: 4, NumCoflows: 10, Seed: 11,
		NarrowFraction: 0.5, WideFraction: 0.2,
		MaxFlowSize: 6, ParetoAlpha: 1.3, MeanInterarrival: 2,
	})
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
				t.Fatalf("%v slot %d: %v", policy, res.Slot, vs)
			}
			tt = res.Slot
		}
		if state.Len() > 0 {
			t.Fatalf("%v: scheduler stalled", policy)
		}
		if len(mon.coflows) != 0 {
			t.Fatalf("%v: monitor still tracks %d coflows after drain", policy, len(mon.coflows))
		}
	}
}

// TestMonitorDetectsBadSlots: fabricated StepResults trip the right
// invariant.
func TestMonitorDetectsBadSlots(t *testing.T) {
	flows := []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 2}, {Src: 1, Dst: 1, Size: 1}}
	newMon := func() *Monitor {
		mo := NewMonitor(2)
		mo.Add(0, 0, flows)
		mo.Add(1, 5, []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 1}})
		return mo
	}
	cases := []struct {
		name string
		res  online.StepResult
		want Kind
	}{
		{"double-booked ingress", online.StepResult{Slot: 1, Active: 1, Served: []online.Assignment{
			{Key: 0, Src: 0, Dst: 0}, {Key: 0, Src: 0, Dst: 1},
		}}, KindDoubleBooked},
		{"double-booked egress", online.StepResult{Slot: 1, Active: 1, Served: []online.Assignment{
			{Key: 0, Src: 0, Dst: 0}, {Key: 0, Src: 1, Dst: 0},
		}}, KindDoubleBooked},
		{"out-of-range port", online.StepResult{Slot: 1, Active: 1, Served: []online.Assignment{
			{Key: 0, Src: 5, Dst: 0},
		}}, KindBadService},
		{"unknown coflow", online.StepResult{Slot: 1, Active: 1, Served: []online.Assignment{
			{Key: 42, Src: 0, Dst: 0},
		}}, KindBadService},
		{"pre-release service", online.StepResult{Slot: 1, Active: 1, Served: []online.Assignment{
			{Key: 1, Src: 0, Dst: 1},
		}}, KindPreRelease},
		{"over-served pair", online.StepResult{Slot: 1, Active: 1, Served: []online.Assignment{
			{Key: 0, Src: 1, Dst: 0}, // no demand on (1,0)
		}}, KindOverServed},
		{"phantom completion", online.StepResult{Slot: 1, Active: 1,
			Completed: []int{0}}, KindBadCompletion},
		{"unknown completion", online.StepResult{Slot: 1, Active: 1,
			Completed: []int{42}}, KindBadCompletion},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := newMon().Observe(tc.res, true)
			if !hasKind(vs, tc.want) {
				t.Fatalf("want %v, got: %s", tc.want, kinds(vs))
			}
		})
	}
}

// TestMonitorDetectsSilentDrain: a coflow whose last unit moves
// without a completion report is an under-serve (the scheduler lost a
// completion), and the monitor resyncs by forgetting it.
func TestMonitorDetectsSilentDrain(t *testing.T) {
	mo := NewMonitor(2)
	mo.Add(0, 0, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}})
	vs := mo.Observe(online.StepResult{Slot: 1, Active: 1,
		Served: []online.Assignment{{Key: 0, Src: 0, Dst: 0}}}, true)
	if !hasKind(vs, KindUnderServed) {
		t.Fatalf("silent drain not reported: %s", kinds(vs))
	}
	if len(mo.coflows) != 0 {
		t.Fatal("monitor did not resync after silent drain")
	}
}

// TestMonitorDetectsNonMonotoneSlot: slots must strictly advance.
func TestMonitorDetectsNonMonotoneSlot(t *testing.T) {
	mo := NewMonitor(2)
	mo.Add(0, 0, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 5}})
	res := online.StepResult{Slot: 3, Active: 1,
		Served: []online.Assignment{{Key: 0, Src: 0, Dst: 0}}}
	if vs := mo.Observe(res, true); vs != nil {
		t.Fatalf("clean slot flagged: %s", kinds(vs))
	}
	if vs := mo.Observe(res, true); !hasKind(vs, KindBadService) {
		t.Fatalf("repeated slot not flagged: %s", kinds(vs))
	}
}

// TestMonitorSampledValidation: slots observed with validate=false
// still advance the bookkeeping, so a later validated slot checks
// against correct remainders (sound sampling) — and a violation on an
// unvalidated slot is silently absorbed, which is the documented
// trade-off.
func TestMonitorSampledValidation(t *testing.T) {
	mo := NewMonitor(2)
	mo.Add(0, 0, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 2}})
	if vs := mo.Observe(online.StepResult{Slot: 1, Active: 1,
		Served: []online.Assignment{{Key: 0, Src: 0, Dst: 0}}}, false); vs != nil {
		t.Fatalf("validate=false returned violations: %s", kinds(vs))
	}
	// The pair now has exactly 1 unit left in the monitor's view: a
	// validated slot serving it with a completion report is clean ONLY
	// if the skipped slot was applied.
	vs := mo.Observe(online.StepResult{Slot: 2, Active: 1,
		Served:    []online.Assignment{{Key: 0, Src: 0, Dst: 0}},
		Completed: []int{0}}, true)
	if vs != nil {
		t.Fatalf("sampled bookkeeping out of sync: %s", kinds(vs))
	}
	if len(mo.coflows) != 0 {
		t.Fatal("completion not applied")
	}
}

// TestMonitorIgnoresZeroDemand: zero-demand and out-of-range flows
// are dropped at Add, matching the scheduler's retention rule.
func TestMonitorIgnoresZeroDemand(t *testing.T) {
	mo := NewMonitor(2)
	mo.Add(0, 0, nil)
	mo.Add(1, 0, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 0}})
	mo.Add(2, 0, []coflowmodel.Flow{{Src: 7, Dst: 0, Size: 3}})
	if len(mo.coflows) != 0 {
		t.Fatalf("monitor retains %d empty coflows", len(mo.coflows))
	}
	mo.Add(3, 0, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}})
	mo.Remove(3)
	if len(mo.coflows) != 0 {
		t.Fatal("Remove did not forget the coflow")
	}
}
