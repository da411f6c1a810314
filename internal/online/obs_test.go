package online

import (
	"math/rand"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/obs"
)

// TestStepObsEnabledDoesNotAllocate is the enabled-path companion of
// TestStepDoesNotAllocate: with a live registry wired in (histograms
// and counters), a steady-state serving tick — replayed or fully
// scanned — must still run with zero heap allocations: all metric
// updates are atomic stores into pre-allocated structures and spans
// are stack values.
func TestStepObsEnabledDoesNotAllocate(t *testing.T) {
	for _, p := range []Policy{FIFO, SEBF, WSPT} {
		for _, tc := range []struct {
			name    string
			tickers int
		}{{"serving-", 0}, {"fullscan-", 256}} {
			t.Run(tc.name+p.String(), func(t *testing.T) {
				o := NewObs(obs.NewRegistry())
				s := benchState(50, 200, tc.tickers)
				s.SetObs(o)
				if avg := stepAllocs(s, p, 200); avg != 0 {
					t.Errorf("instrumented %v tick allocates %.1f times per step, want 0", p, avg)
				}
				if tc.tickers > 0 {
					wantFullScans(t, o.FullScans, 200)
				}
				if got := o.Steps.Value(); got == 0 {
					t.Fatal("instrumentation did not record any steps")
				}
				if o.StepSeconds.Snapshot().Count == 0 {
					t.Fatal("step histogram recorded no samples")
				}
			})
		}
	}
	t.Run("noop", func(t *testing.T) {
		reg := obs.NewRegistry()
		s := NewState(100)
		s.SetObs(NewObs(reg))
		if _, err := s.Add(1, 1, 1<<40, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}}); err != nil {
			t.Fatal(err)
		}
		slot := int64(0)
		if avg := testing.AllocsPerRun(200, func() {
			slot++
			s.Step(slot, SEBF)
		}); avg != 0 {
			t.Errorf("instrumented no-op tick allocates %.1f times per step, want 0", avg)
		}
	})
}

// TestObsCountersConsistent runs a full simulation with instrumentation
// and checks the bookkeeping identities: every step is a replay, a
// full scan, or idle; units served equals the instance's total demand.
func TestObsCountersConsistent(t *testing.T) {
	reg := obs.NewRegistry()
	o := NewObs(reg)
	SetDefaultObs(o)
	defer SetDefaultObs(Obs{})

	ins := randomInstance(rand.New(rand.NewSource(7)), 8, 20, 12, 30)
	res, err := Simulate(ins, SEBF)
	if err != nil {
		t.Fatal(err)
	}
	steps := o.Steps.Value()
	replays := o.Replays.Value()
	scans := o.FullScans.Value()
	idle := o.IdleSteps.Value()
	if replays+scans+idle != steps {
		t.Errorf("replays(%d) + scans(%d) + idle(%d) != steps(%d)", replays, scans, idle, steps)
	}
	var total int64
	for k := range ins.Coflows {
		total += ins.Coflows[k].TotalSize()
	}
	if got := o.UnitsServed.Value(); got != total {
		t.Errorf("units served = %d, want total demand %d", got, total)
	}
	if got := o.CoflowsCompleted.Value(); got != int64(len(ins.Coflows)) {
		t.Errorf("completions = %d, want %d", got, len(ins.Coflows))
	}
	if res.Makespan <= 0 {
		t.Fatalf("degenerate makespan %d", res.Makespan)
	}
	rate := o.WarmStartHitRate()
	if rate < 0 || rate > 1 {
		t.Errorf("warm-start hit rate %v outside [0,1]", rate)
	}
}
