package online

import (
	"math/rand"
	"testing"

	"coflow/internal/bvn"
	"coflow/internal/coflowmodel"
	"coflow/internal/matrix"
	"coflow/internal/obs"
)

// TestPlannerDifferential drives the planner with random interleavings
// of Add (growth), Observe (service), Shed (cancellation) and Plan,
// shadowing the aggregate demand independently. Every Plan must be a
// valid BvN decomposition of the shadow (full Lemma 4 contract),
// whether it came from the cold path or the incremental Update path.
func TestPlannerDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const m = 5
	for seq := 0; seq < 200; seq++ {
		p := NewPlanner(m)
		shadow := matrix.NewSquare(m)
		for step := 0; step < 20; step++ {
			switch rng.Intn(4) {
			case 0: // register a coflow
				flows := make([]coflowmodel.Flow, 1+rng.Intn(4))
				for i := range flows {
					flows[i] = coflowmodel.Flow{
						Src: rng.Intn(m), Dst: rng.Intn(m), Size: rng.Int63n(6),
					}
					shadow.Add(flows[i].Src, flows[i].Dst, flows[i].Size)
				}
				if err := p.Add(flows); err != nil {
					t.Fatalf("seq %d step %d: Add: %v", seq, step, err)
				}
			case 1: // serve up to one unit per positive cell
				var served []Assignment
				for i := 0; i < m; i++ {
					for j := 0; j < m; j++ {
						if shadow.At(i, j) > 0 && rng.Intn(2) == 0 {
							served = append(served, Assignment{Src: i, Dst: j})
							shadow.Add(i, j, -1)
						}
					}
				}
				if err := p.Observe(served); err != nil {
					t.Fatalf("seq %d step %d: Observe: %v", seq, step, err)
				}
			case 2: // cancel: shed a random chunk of remaining demand
				var entries []matrix.SparseEntry
				for i := 0; i < m; i++ {
					for j := 0; j < m; j++ {
						if v := shadow.At(i, j); v > 0 && rng.Intn(3) == 0 {
							q := 1 + rng.Int63n(v)
							entries = append(entries, matrix.SparseEntry{Row: i, Col: j, Val: q})
							shadow.Add(i, j, -q)
						}
					}
				}
				if err := p.Shed(entries); err != nil {
					t.Fatalf("seq %d step %d: Shed: %v", seq, step, err)
				}
			case 3:
				dec, err := p.Plan()
				if err != nil {
					t.Fatalf("seq %d step %d: Plan: %v", seq, step, err)
				}
				if err := dec.Verify(shadow); err != nil {
					t.Fatalf("seq %d step %d: plan diverged: %v\nshadow:\n%v", seq, step, err, shadow)
				}
				if p.Load() != shadow.Load() {
					t.Fatalf("seq %d step %d: Load %d, want %d", seq, step, p.Load(), shadow.Load())
				}
			}
		}
	}
}

// TestPlannerIncrementalPath asserts the steady-state contract: with
// no growth between Plans, repairs run through Decomposer.Update (not
// cold decompositions), and an unchanged backlog returns the cached
// plan without touching the Decomposer at all.
func TestPlannerIncrementalPath(t *testing.T) {
	reg := obs.NewRegistry()
	o := bvn.NewObs(reg)
	p := NewPlanner(3)
	p.SetObs(o)
	if err := p.Add([]coflowmodel.Flow{
		{Src: 0, Dst: 1, Size: 4}, {Src: 1, Dst: 0, Size: 3}, {Src: 2, Dst: 2, Size: 2},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(); err != nil {
		t.Fatal(err)
	}
	if got := o.Decomposes.Value(); got != 1 {
		t.Fatalf("first Plan ran %d decompositions, want 1", got)
	}
	// Shrink-only transitions must repair incrementally.
	for i := 0; i < 3; i++ {
		if err := p.Observe([]Assignment{{Src: 0, Dst: 1}}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Plan(); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.Updates.Value(); got != 3 {
		t.Fatalf("3 shrink Plans ran %d Updates, want 3", got)
	}
	if got := o.Decomposes.Value() - o.UpdateFallbacks.Value(); got != 1 {
		t.Fatalf("shrink Plans ran %d non-fallback cold decompositions, want 1", got)
	}
	// An unchanged backlog is served from the cache.
	updates, decomposes := o.Updates.Value(), o.Decomposes.Value()
	for i := 0; i < 5; i++ {
		if _, err := p.Plan(); err != nil {
			t.Fatal(err)
		}
	}
	if o.Updates.Value() != updates || o.Decomposes.Value() != decomposes {
		t.Fatal("Plan on an unchanged backlog did not use the cache")
	}
}

// TestPlannerMisuse checks the conservation guards.
func TestPlannerMisuse(t *testing.T) {
	p := NewPlanner(3)
	if err := p.Add([]coflowmodel.Flow{{Src: 0, Dst: 5, Size: 1}}); err == nil {
		t.Fatal("Add out of port range succeeded")
	}
	if err := p.Add([]coflowmodel.Flow{{Src: 0, Dst: 1, Size: -1}}); err == nil {
		t.Fatal("Add with negative size succeeded")
	}
	if err := p.Observe([]Assignment{{Src: 0, Dst: 0}}); err == nil {
		t.Fatal("Observe without demand succeeded")
	}
	if err := p.Shed([]matrix.SparseEntry{{Row: 0, Col: 0, Val: 1}}); err == nil {
		t.Fatal("Shed beyond demand succeeded")
	}
}

// TestPlanAfterShedRepairsCache is the hand-audit regression for the
// pooled-plan cache: a Shed between Plans must not serve the stale
// cached decomposition — the next Plan has to repair (via Update, not
// a cold recompute) and its result must decompose the reduced demand.
func TestPlanAfterShedRepairsCache(t *testing.T) {
	reg := obs.NewRegistry()
	o := bvn.NewObs(reg)
	p := NewPlanner(2)
	p.SetObs(o)
	if err := p.Add([]coflowmodel.Flow{
		{Src: 0, Dst: 0, Size: 2}, {Src: 1, Dst: 1, Size: 2},
		{Src: 0, Dst: 1, Size: 1}, {Src: 1, Dst: 0, Size: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(); err != nil {
		t.Fatal(err)
	}
	if got := p.Load(); got != 3 {
		t.Fatalf("initial Load = %d, want 3", got)
	}

	// Cancel the off-diagonal demand entirely.
	if err := p.Shed([]matrix.SparseEntry{
		{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1},
	}); err != nil {
		t.Fatal(err)
	}
	decomposes := o.Decomposes.Value()
	dec, err := p.Plan()
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.NewSquare(2)
	want.Add(0, 0, 2)
	want.Add(1, 1, 2)
	if err := dec.Verify(want); err != nil {
		t.Fatalf("Plan after Shed served a stale decomposition: %v", err)
	}
	if got := p.Load(); got != 2 {
		t.Fatalf("Load after Shed = %d, want 2", got)
	}
	if got := o.Updates.Value(); got != 1 {
		t.Fatalf("Plan after Shed ran %d Updates, want 1 (incremental repair)", got)
	}
	if got := o.Decomposes.Value() - o.UpdateFallbacks.Value(); got != decomposes {
		t.Fatal("Plan after Shed ran a cold decomposition instead of the incremental repair")
	}
}

// TestPlannerTickDoesNotAllocate is the allocation gate of a `-plan`
// tick, the way the daemon's loop runs one: Step, Observe the served
// matching, Plan; then a cancellation — Remove, Shed the coflow's
// remaining demand, Plan. Both Plans are shrinks, so both go through
// Decomposer.Update on a warm term pool (counted below), and the
// Remove forbids the replay, so every Step is a full scan.
func TestPlannerTickDoesNotAllocate(t *testing.T) {
	const m, warm, runs = 20, 60, 100
	s := benchState(m, 60, 0)
	// One parked coflow per measured tick: released far in the future,
	// never served, cancelled at its tick. State.Demand allocates its
	// copy, so the cancellations' demands are read up front.
	parked := make([][]matrix.SparseEntry, warm+1+runs)
	for k := range parked {
		key := 1000 + k
		flows := []coflowmodel.Flow{{Src: k % m, Dst: (k * 7) % m, Size: int64(1 + k%5)}}
		if _, err := s.Add(key, 1, 1<<40, flows); err != nil {
			t.Fatal(err)
		}
		parked[k] = s.Demand(key)
	}
	o := bvn.NewObs(obs.NewRegistry())
	p := NewPlanner(m)
	p.SetObs(o)
	for _, key := range s.Keys(nil) {
		var flows []coflowmodel.Flow
		for _, e := range s.Demand(key) {
			flows = append(flows, coflowmodel.Flow{Src: e.Row, Dst: e.Col, Size: e.Val})
		}
		if err := p.Add(flows); err != nil {
			t.Fatal(err)
		}
	}
	slot := 0
	tick := func() {
		res := s.Step(int64(slot+1), SEBF)
		if err := p.Observe(res.Served); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Plan(); err != nil {
			t.Fatal(err)
		}
		if !s.Remove(1000 + slot) {
			t.Fatalf("parked coflow %d is gone", 1000+slot)
		}
		if err := p.Shed(parked[slot]); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Plan(); err != nil {
			t.Fatal(err)
		}
		slot++
	}
	for slot < warm { // the first Plan is cold; early fallbacks still grow the term pool
		tick()
	}
	updates := o.Updates.Value()
	if avg := testing.AllocsPerRun(runs, tick); avg != 0 {
		t.Errorf("a -plan tick allocates %.1f times, want 0", avg)
	}
	if got, want := o.Updates.Value()-updates, int64(2*(1+runs)); got != want {
		t.Errorf("%d of %d measured Plans ran Decomposer.Update", got, want)
	}
}
