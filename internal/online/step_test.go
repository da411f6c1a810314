package online

import (
	"math/rand"
	"testing"

	"coflow/internal/coflowmodel"
)

func TestStateAddValidation(t *testing.T) {
	s := NewState(2)
	if _, err := s.Add(1, 1, 0, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		key     int
		weight  float64
		release int64
		flows   []coflowmodel.Flow
	}{
		{"duplicate key", 1, 1, 0, nil},
		{"zero weight", 2, 0, 0, nil},
		{"negative release", 2, 1, -1, nil},
		{"src out of range", 2, 1, 0, []coflowmodel.Flow{{Src: 2, Dst: 0, Size: 1}}},
		{"dst out of range", 2, 1, 0, []coflowmodel.Flow{{Src: 0, Dst: -1, Size: 1}}},
		{"negative size", 2, 1, 0, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: -1}}},
	}
	for _, tc := range cases {
		if _, err := s.Add(tc.key, tc.weight, tc.release, tc.flows); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after rejected adds, want 1", s.Len())
	}
}

func TestStateZeroDemandNotRetained(t *testing.T) {
	s := NewState(2)
	rem, err := s.Add(1, 1, 5, []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 0}})
	if err != nil || rem != 0 {
		t.Fatalf("Add = (%d, %v), want (0, nil)", rem, err)
	}
	if s.Len() != 0 {
		t.Fatalf("zero-demand coflow retained (Len = %d)", s.Len())
	}
}

func TestStepServesMatchingAndCompletes(t *testing.T) {
	s := NewState(2)
	// Two coflows on disjoint pairs: both can be served every slot.
	if _, err := s.Add(7, 1, 0, []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(9, 1, 0, []coflowmodel.Flow{{Src: 1, Dst: 0, Size: 1}}); err != nil {
		t.Fatal(err)
	}
	r1 := s.Step(1, FIFO)
	if r1.Active != 2 || len(r1.Served) != 2 {
		t.Fatalf("slot 1: active=%d served=%v", r1.Active, r1.Served)
	}
	if len(r1.Completed) != 1 || r1.Completed[0] != 9 {
		t.Fatalf("slot 1 completed = %v, want [9]", r1.Completed)
	}
	if rem, ok := s.Remaining(7); !ok || rem != 1 {
		t.Fatalf("Remaining(7) = (%d, %v), want (1, true)", rem, ok)
	}
	r2 := s.Step(2, FIFO)
	if len(r2.Completed) != 1 || r2.Completed[0] != 7 {
		t.Fatalf("slot 2 completed = %v, want [7]", r2.Completed)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after completion, want 0", s.Len())
	}
}

func TestStepMatchingConstraint(t *testing.T) {
	// Three coflows all demanding ingress 0: one unit per slot total.
	s := NewState(2)
	for k := 1; k <= 3; k++ {
		if _, err := s.Add(k, 1, 0, []coflowmodel.Flow{{Src: 0, Dst: k % 2, Size: 3}}); err != nil {
			t.Fatal(err)
		}
	}
	for slot := int64(1); s.Len() > 0; slot++ {
		if slot > 100 {
			t.Fatal("did not drain")
		}
		r := s.Step(slot, WSPT)
		srcSeen := map[int]bool{}
		dstSeen := map[int]bool{}
		for _, a := range r.Served {
			if srcSeen[a.Src] || dstSeen[a.Dst] {
				t.Fatalf("slot %d: served set %v is not a matching", slot, r.Served)
			}
			srcSeen[a.Src] = true
			dstSeen[a.Dst] = true
		}
	}
}

func TestStepRespectsRelease(t *testing.T) {
	s := NewState(1)
	if _, err := s.Add(1, 1, 3, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}}); err != nil {
		t.Fatal(err)
	}
	// Released at 3: first eligible slot is 4.
	for slot := int64(1); slot <= 3; slot++ {
		if r := s.Step(slot, SEBF); r.Active != 0 || len(r.Served) != 0 {
			t.Fatalf("slot %d served a coflow released at 3: %+v", slot, r)
		}
	}
	if next := s.NextRelease(0); next != 3 {
		t.Fatalf("NextRelease(0) = %d, want 3", next)
	}
	if next := s.NextRelease(3); next != -1 {
		t.Fatalf("NextRelease(3) = %d, want -1", next)
	}
	r := s.Step(4, SEBF)
	if len(r.Completed) != 1 || r.Completed[0] != 1 {
		t.Fatalf("slot 4 completed = %v, want [1]", r.Completed)
	}
}

func TestRemoveCancelsCoflow(t *testing.T) {
	s := NewState(1)
	if _, err := s.Add(1, 1, 0, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 10}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(2, 1, 0, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}}); err != nil {
		t.Fatal(err)
	}
	if !s.Remove(1) {
		t.Fatal("Remove(1) = false")
	}
	if s.Remove(1) {
		t.Fatal("Remove(1) succeeded twice")
	}
	if _, ok := s.Remaining(1); ok {
		t.Fatal("removed coflow still live")
	}
	// With the hog cancelled, coflow 2 completes immediately.
	r := s.Step(1, FIFO)
	if len(r.Completed) != 1 || r.Completed[0] != 2 {
		t.Fatalf("completed = %v, want [2]", r.Completed)
	}
}

// The incremental Step path must agree exactly with the batch Simulate
// path (they share the slot core, but the drivers differ).
func TestStepAgreesWithSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(4)
		n := 1 + rng.Intn(6)
		ins := randomInstance(rng, m, n, 6, 5)
		for _, p := range []Policy{FIFO, SEBF, WSPT} {
			want, err := Simulate(ins, p)
			if err != nil {
				t.Fatal(err)
			}
			s := NewState(m)
			got := make([]int64, n)
			for k := range ins.Coflows {
				c := &ins.Coflows[k]
				rem, err := s.Add(k, c.Weight, c.Release, c.Flows)
				if err != nil {
					t.Fatal(err)
				}
				if rem == 0 {
					got[k] = c.Release
				}
			}
			// Drive every slot explicitly (no idle skipping).
			for slot := int64(1); s.Len() > 0; slot++ {
				if slot > 2*ins.Horizon()+2 {
					t.Fatalf("trial %d %v: step driver stalled", trial, p)
				}
				for _, k := range s.Step(slot, p).Completed {
					got[k] = slot
				}
			}
			for k := range got {
				if got[k] != want.Completion[k] {
					t.Fatalf("trial %d %v coflow %d: step %d != simulate %d",
						trial, p, k, got[k], want.Completion[k])
				}
			}
		}
	}
}

// TestStepDoesNotAllocate is the allocation regression gate (the
// BenchmarkStep* numbers report the same thing, but a benchmark is only
// read by humans; this fails CI). A no-op tick — nothing released —, a
// steady-state serving tick (a backlog that never drains) and a tick
// that completes a coflow every slot (and so reaches drop) must all run
// with zero heap allocations.
func TestStepDoesNotAllocate(t *testing.T) {
	t.Run("noop", func(t *testing.T) {
		s := NewState(100)
		if _, err := s.Add(1, 1, 1<<40, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}}); err != nil {
			t.Fatal(err)
		}
		slot := int64(0)
		if avg := testing.AllocsPerRun(200, func() {
			slot++
			s.Step(slot, SEBF)
		}); avg != 0 {
			t.Errorf("no-op tick allocates %.1f times per step, want 0", avg)
		}
	})
	for _, p := range []Policy{FIFO, SEBF, WSPT} {
		t.Run("serving-"+p.String(), func(t *testing.T) {
			if avg := stepAllocs(benchState(50, 200, 0), p, 200); avg != 0 {
				t.Errorf("steady-state %v tick allocates %.1f times per step, want 0", p, avg)
			}
		})
		t.Run("fullscan-"+p.String(), func(t *testing.T) {
			if avg := stepAllocs(benchState(50, 200, 256), p, 200); avg != 0 {
				t.Errorf("completing %v tick allocates %.1f times per step, want 0", p, avg)
			}
		})
	}
}

// warmSlots is stepAllocs' warm-up: the first slots may grow the
// reusable buffers.
const warmSlots = 3

// stepAllocs warms s up and returns the allocations per Step over the
// next runs slots.
func stepAllocs(s *State, p Policy, runs int) float64 {
	slot := int64(0)
	for ; slot < warmSlots; slot++ {
		s.Step(slot+1, p)
	}
	return testing.AllocsPerRun(runs, func() {
		slot++
		s.Step(slot, p)
	})
}

// benchState builds the tracked shape: n live coflows on m ports whose
// demand is large enough that none completes, behind tickers one-unit
// coflows on one port pair that sort first under every policy (lowest
// keys, smallest load). With tickers == 0 no coflow ever completes;
// with tickers left, each slot completes exactly one of them: a scan
// over the backlog plus a drop.
func benchState(m, n, tickers int) *State {
	rng := rand.New(rand.NewSource(42))
	s := NewState(m)
	for k := 0; k < tickers; k++ {
		if _, err := s.Add(k, 1, 0, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}}); err != nil {
			panic(err)
		}
	}
	for k := 0; k < n; k++ {
		var flows []coflowmodel.Flow
		for f := 0; f < 1+rng.Intn(8); f++ {
			flows = append(flows, coflowmodel.Flow{
				Src: rng.Intn(m), Dst: rng.Intn(m), Size: 1 << 40,
			})
		}
		if _, err := s.Add(tickers+k, 1+float64(rng.Intn(9)), 0, flows); err != nil {
			panic(err)
		}
	}
	return s
}

// BenchmarkStepM100C500SEBF is the local profiling entry point for one
// scheduling tick at datacenter scale: m=100 ports, 500 live coflows.
// The tracked number is the harness's online.step_us_p50.
func BenchmarkStepM100C500SEBF(b *testing.B) {
	s := benchState(100, 500, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(int64(i+1), SEBF)
	}
}

// Served lists each coflow's assignments contiguously; the daemon
// publishes one status per run.
func TestStepServedIsGroupedByCoflow(t *testing.T) {
	ins := randomInstance(rand.New(rand.NewSource(11)), 8, 20, 12, 30)
	s := NewState(ins.Ports)
	for k, c := range ins.Coflows {
		if _, err := s.Add(k, c.Weight, c.Release, c.Flows); err != nil {
			t.Fatal(err)
		}
	}
	multi := false // some slot serves a coflow on several pairs
	for slot := int64(1); s.Len() > 0; slot++ {
		r := s.Step(slot, SEBF)
		ended := map[int]bool{}
		for i, a := range r.Served {
			if i > 0 && a.Key != r.Served[i-1].Key {
				ended[r.Served[i-1].Key] = true
			}
			multi = multi || i > 0 && a.Key == r.Served[i-1].Key
			if ended[a.Key] {
				t.Fatalf("slot %d: coflow %d served in two runs: %v", slot, a.Key, r.Served)
			}
		}
	}
	if !multi {
		t.Fatal("no slot served a coflow on several pairs")
	}
}
