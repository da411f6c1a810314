package online

import (
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/obs"
)

func TestFailPortValidation(t *testing.T) {
	s := NewState(4)
	if err := s.FailPort(-1); err == nil {
		t.Error("FailPort(-1) accepted")
	}
	if err := s.FailPort(4); err == nil {
		t.Error("FailPort(4) accepted on a 4-port switch")
	}
	if err := s.RecoverPort(99); err == nil {
		t.Error("RecoverPort(99) accepted")
	}
	if err := s.FailPort(2); err != nil {
		t.Fatal(err)
	}
	if err := s.FailPort(2); err != nil {
		t.Fatalf("FailPort is not idempotent: %v", err)
	}
	if !s.failed[2] || s.FailedPortCount() != 1 {
		t.Fatalf("failed[2]=%v count=%d, want true/1", s.failed[2], s.FailedPortCount())
	}
	if got := s.FailedPorts(nil); len(got) != 1 || got[0] != 2 {
		t.Fatalf("FailedPorts = %v, want [2]", got)
	}
	if err := s.RecoverPort(2); err != nil {
		t.Fatal(err)
	}
	if s.failed[2] || s.FailedPortCount() != 0 {
		t.Fatalf("port 2 still failed after recovery")
	}
}

// TestFailPortParksDemand pins the core failure semantics: demand on a
// dead port is never served and never dropped — it parks, and resumes
// after recovery, with total conservation across the whole episode.
func TestFailPortParksDemand(t *testing.T) {
	for _, policy := range []Policy{FIFO, SEBF, WSPT} {
		s := NewState(3)
		// Coflow 1 is entirely on port 0 (ingress); coflow 2 avoids it.
		if _, err := s.Add(1, 1, 0, []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 3}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Add(2, 1, 0, []coflowmodel.Flow{{Src: 1, Dst: 2, Size: 2}}); err != nil {
			t.Fatal(err)
		}
		if err := s.FailPort(0); err != nil {
			t.Fatal(err)
		}
		var slot int64
		for ; slot < 3; slot++ {
			res := s.Step(slot+1, policy)
			for _, a := range res.Served {
				if a.Src == 0 || a.Dst == 0 {
					t.Fatalf("%v slot %d: served %+v on failed port 0", policy, res.Slot, a)
				}
			}
		}
		// Coflow 2 drained; coflow 1 is parked intact.
		if rem, ok := s.Remaining(1); !ok || rem != 3 {
			t.Fatalf("%v: Remaining(1) = (%d, %v), want (3, true) while port down", policy, rem, ok)
		}
		if _, ok := s.Remaining(2); ok {
			t.Fatalf("%v: coflow 2 not completed despite live ports", policy)
		}
		if err := s.RecoverPort(0); err != nil {
			t.Fatal(err)
		}
		for ; slot < 10 && s.Len() > 0; slot++ {
			s.Step(slot+1, policy)
		}
		if s.Len() != 0 {
			t.Fatalf("%v: coflow 1 never drained after recovery", policy)
		}
	}
}

// TestFailPortInvalidatesReplay drives the scheduler into the
// warm-start replay regime, then fails a port that the replayed
// matching uses: the next slot must NOT re-serve the dead port.
func TestFailPortInvalidatesReplay(t *testing.T) {
	s := NewState(2)
	if _, err := s.Add(1, 1, 0, []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 10}}); err != nil {
		t.Fatal(err)
	}
	s.Step(1, FIFO)
	s.Step(2, FIFO) // replay regime: same matching recurs
	if err := s.FailPort(0); err != nil {
		t.Fatal(err)
	}
	res := s.Step(3, FIFO)
	if len(res.Served) != 0 {
		t.Fatalf("served %v through failed port 0 (stale replay)", res.Served)
	}
	if rem, _ := s.Remaining(1); rem != 8 {
		t.Fatalf("Remaining = %d, want 8 (two slots served, then parked)", rem)
	}
}

// TestFailPortMaskedPriority: with a port down, SEBF must prefer the
// coflow with the smaller serviceable bottleneck, not the smaller
// nominal one, and a fully stranded coflow must not block others.
func TestFailPortMaskedPriority(t *testing.T) {
	s := NewState(4)
	// Coflow 1: tiny nominal load but fully stranded once port 0 fails.
	if _, err := s.Add(1, 1, 0, []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 1}}); err != nil {
		t.Fatal(err)
	}
	// Coflows 2 and 3 share ingress 2: only one can be served per slot,
	// so priority decides. Coflow 2 has the larger serviceable load.
	if _, err := s.Add(2, 1, 0, []coflowmodel.Flow{{Src: 2, Dst: 3, Size: 5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(3, 1, 0, []coflowmodel.Flow{{Src: 2, Dst: 1, Size: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.FailPort(0); err != nil {
		t.Fatal(err)
	}
	res := s.Step(1, SEBF)
	if len(res.Served) != 1 {
		t.Fatalf("served %v, want exactly one unit (shared ingress)", res.Served)
	}
	if res.Served[0].Key != 3 {
		t.Fatalf("served coflow %d first, want 3 (smallest masked bottleneck)", res.Served[0].Key)
	}
}

// TestStepWithFailedPortDoesNotAllocate: the masked scan and the
// masked priorities allocate nothing, whether the slot replays (a
// backlog that never drains) or runs the full scan (one-unit coflows
// queued on one pair ahead of it, so every slot completes one).
func TestStepWithFailedPortDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name    string
		tickers int
	}{{"replay", 0}, {"fullscan", 128}} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewState(8)
			scans := obs.NewRegistry().Counter("scans", "full scans")
			s.SetObs(Obs{FullScans: scans})
			for k := 0; k < tc.tickers; k++ {
				if _, err := s.Add(k, 1, 0, []coflowmodel.Flow{{Src: 2, Dst: 7, Size: 1}}); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < 4; k++ {
				if _, err := s.Add(tc.tickers+k, 1, 0, []coflowmodel.Flow{{Src: k, Dst: k + 4, Size: 1 << 20}}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.FailPort(1); err != nil {
				t.Fatal(err)
			}
			if allocs := stepAllocs(s, SEBF, 100); allocs != 0 {
				t.Fatalf("Step with a failed port allocates %.1f times per slot, want 0", allocs)
			}
			if tc.tickers > 0 {
				wantFullScans(t, scans, 100)
			}
		})
	}
}
