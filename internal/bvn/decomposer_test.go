package bvn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"coflow/internal/matrix"
	"coflow/internal/obs"
)

// randomServe builds one shrink step: a served matrix taking a random
// positive amount from a random subset of shadow's positive entries,
// and applies it to shadow. It reports false when shadow is already
// zero.
func randomServe(rng *rand.Rand, shadow, served *matrix.Matrix) bool {
	m := shadow.Rows()
	served.Zero()
	any := false
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			v := shadow.At(i, j)
			if v <= 0 || rng.Intn(3) == 0 {
				continue
			}
			q := 1 + rng.Int63n(v)
			served.Set(i, j, q)
			shadow.Add(i, j, -q)
			any = true
		}
	}
	if any {
		return true
	}
	// Nothing picked by the coin flips: serve the first positive entry
	// so every step with demand left makes progress.
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if v := shadow.At(i, j); v > 0 {
				q := 1 + rng.Int63n(v)
				served.Set(i, j, q)
				shadow.Add(i, j, -q)
				return true
			}
		}
	}
	return false
}

// TestIncrementalVsCold is the differential gate on Update: across
// 1000 random shrink sequences, every incremental repair must satisfy
// the full Lemma 4 contract (Verify) against the shrunken demand —
// the exact invariants a cold Decompose of that demand would satisfy,
// including Σq = ρ(D′).
func TestIncrementalVsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seq := 0; seq < 1000; seq++ {
		m := 2 + rng.Intn(6)
		d := matrix.NewSquare(m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if rng.Intn(3) > 0 {
					d.Set(i, j, rng.Int63n(10))
				}
			}
		}
		dc := NewDecomposer(m)
		strategy := StrategyFirst
		if seq%4 == 3 {
			strategy = StrategyThick
		}
		cur, err := dc.DecomposeWith(d, strategy)
		if err != nil {
			t.Fatalf("seq %d: cold: %v", seq, err)
		}
		if err := cur.Verify(d); err != nil {
			t.Fatalf("seq %d: cold verify: %v", seq, err)
		}
		shadow := d.Clone()
		served := matrix.NewSquare(m)
		for step := 0; step < 8; step++ {
			if !randomServe(rng, shadow, served) {
				break
			}
			cur, err = dc.Update(served)
			if err != nil {
				t.Fatalf("seq %d step %d: Update: %v", seq, step, err)
			}
			if err := cur.Verify(shadow); err != nil {
				t.Fatalf("seq %d step %d: diverged from cold contract: %v\nshadow:\n%v", seq, step, err, shadow)
			}
			if want := shadow.Load(); cur.Load != want {
				t.Fatalf("seq %d step %d: Load %d, cold would give %d", seq, step, cur.Load, want)
			}
		}
	}
}

// FuzzIncrementalVsCold drives Update with arbitrary demand matrices
// and shrink scripts and checks each repaired result against the cold
// contract. The payload is split: the first m² bytes fill the matrix,
// the rest script the serves (each byte picks a cell and an amount).
func FuzzIncrementalVsCold(f *testing.F) {
	f.Add([]byte{1, 2, 2, 1, 0x13, 0x02, 0x31})
	f.Add([]byte{9, 0, 9, 0, 9, 0, 9, 0, 9, 0xff, 0x40, 0x07})
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		m := 2
		for (m+1)*(m+1) <= len(data) && m+1 <= 5 {
			m++
		}
		if len(data) < m*m {
			return
		}
		d := matrix.NewSquare(m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				d.Set(i, j, int64(data[i*m+j]))
			}
		}
		dc := NewDecomposer(m)
		cur, err := dc.Decompose(d)
		if err != nil {
			t.Fatalf("cold on %v: %v", d, err)
		}
		shadow := d.Clone()
		served := matrix.NewSquare(m)
		for _, op := range data[m*m:] {
			cell := int(op) % (m * m)
			i, j := cell/m, cell%m
			v := shadow.At(i, j)
			if v <= 0 {
				continue
			}
			q := 1 + int64(op>>4)%v
			served.Zero()
			served.Set(i, j, q)
			shadow.Add(i, j, -q)
			cur, err = dc.Update(served)
			if err != nil {
				t.Fatalf("Update on %v served (%d,%d)=%d: %v", shadow, i, j, q, err)
			}
			if err := cur.Verify(shadow); err != nil {
				t.Fatalf("diverged from cold contract on %v: %v", shadow, err)
			}
		}
	})
}

// TestDecomposeDoesNotAllocate is the steady-state allocation gate
// mirroring online's TestStepDoesNotAllocate: once a Decomposer's
// scratch and term pool are warm, a cold Decompose and an incremental
// Update must both run without a single heap allocation.
func TestDecomposeDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy Strategy
	}{
		{"first", StrategyFirst},
		{"thick", StrategyThick},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := benchMatrix(40, 0.5, 23)
			dc := NewDecomposer(40)
			if _, err := dc.DecomposeWith(d, tc.strategy); err != nil {
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(10, func() {
				if _, err := dc.DecomposeWith(d, tc.strategy); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Fatalf("warm DecomposeWith(%s) allocates %.1f times per run, want 0", tc.name, avg)
			}
		})
	}

	t.Run("update", func(t *testing.T) {
		d := benchMatrix(40, 0.5, 23)
		dc := NewDecomposer(40)
		served := matrix.NewSquare(40)
		if _, err := dc.Decompose(d); err != nil {
			t.Fatal(err)
		}
		// Each run re-primes cold (0 allocs, proven above) and then
		// serves the plan's first matching for one slot — the slot
		// pipeline's steady-state transition.
		if avg := testing.AllocsPerRun(10, func() {
			cur, err := dc.Decompose(d)
			if err != nil {
				t.Fatal(err)
			}
			// Serve the plan's first matching for one slot; matched cells
			// that are augmentation filler (zero real demand) idle, as in
			// the switch executor.
			perm := cur.Terms[0].Perm
			served.Zero()
			for i, j := range perm.To {
				if dc.demand.At(i, j) > 0 {
					served.Set(i, j, 1)
				}
			}
			if _, err := dc.Update(served); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("warm Update allocates %.1f times per run, want 0", avg)
		}
	})
}

// benchMatrix builds a dense-ish random demand matrix: the shape the
// decomposition loop sees after Augment, where extraction cost is
// dominated by the per-term perfect-matching search.
func benchMatrix(m int, density float64, seed int64) *matrix.Matrix {
	rng := rand.New(rand.NewSource(seed))
	d := matrix.NewSquare(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if rng.Float64() < density {
				d.Set(i, j, int64(1+rng.Intn(50)))
			}
		}
	}
	return d
}

// benchDecomposer measures the steady-state reusable path: one held
// Decomposer, cold Decompose per iteration.
func benchDecomposer(b *testing.B, m int, density float64, strategy Strategy) {
	b.Helper()
	d := benchMatrix(m, density, 17)
	dc := NewDecomposer(m)
	if _, err := dc.DecomposeWith(d, strategy); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dc.DecomposeWith(d, strategy); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecomposerM50Dense(b *testing.B)   { benchDecomposer(b, 50, 0.5, StrategyFirst) }
func BenchmarkDecomposerM100Sparse(b *testing.B) { benchDecomposer(b, 100, 0.1, StrategyFirst) }
func BenchmarkDecomposerM100Dense(b *testing.B)  { benchDecomposer(b, 100, 0.5, StrategyFirst) }

// BenchmarkDecomposerUpdateM100Dense measures the incremental slot
// transition: serve the current plan's first matching for one slot,
// repair with Update. Re-priming when the backlog drains runs off the
// clock.
func BenchmarkDecomposerUpdateM100Dense(b *testing.B) {
	d := benchMatrix(100, 0.5, 17)
	dc := NewDecomposer(100)
	served := matrix.NewSquare(100)
	cur, err := dc.Decompose(d)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Serve the plan's first matching for one slot (matched cells
		// that are augmentation filler idle, as in the switch executor);
		// re-prime when the backlog has drained.
		any := false
		if cur.Load > 0 {
			perm := cur.Terms[0].Perm
			served.Zero()
			for r, c := range perm.To {
				if dc.demand.At(r, c) > 0 {
					served.Set(r, c, 1)
					any = true
				}
			}
		}
		if !any {
			b.StopTimer()
			if cur, err = dc.Decompose(d); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			continue
		}
		if cur, err = dc.Update(served); err != nil {
			b.Fatal(err)
		}
	}
}

// termDigestWant is the SHA-256 TestTermSequencesPinned computes. A
// change to it is a change to every schedule built on a decomposition:
// it must be deliberate and visible, never a side effect of a speed-up.
const termDigestWant = "87f4b2d75cd8f36d9cc47fe68f5dc71741f26e86ffcee9e6fa04aa79260e0039"

// TestTermSequencesPinned pins the exact term sequences Algorithm 1
// emits — count, permutation and order — over a seeded pool of 360
// decompositions. Decomposers are held per size, so warm state carries
// across calls (a thick run leaves a perfect matching for the next
// first-fit run to repair), and each decomposition is followed by a few
// Update steps that serve a greedy slot matching, which makes most of
// them fall back to a cold run.
func TestTermSequencesPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sizes := []int{2, 3, 4, 6, 9, 14, 20, 32, 50, 64, 100}
	held := map[int]*Decomposer{}
	o := NewObs(obs.NewRegistry())
	h := sha256.New()
	var word [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(word[:], uint64(v))
		h.Write(word[:])
	}
	digest := func(dec *Decomposition) {
		put(int64(len(dec.Terms)))
		for _, term := range dec.Terms {
			put(term.Count)
			for _, j := range term.Perm.To {
				put(int64(j))
			}
		}
	}
	for n := 0; n < 360; n++ {
		m := sizes[rng.Intn(len(sizes))]
		dc := held[m]
		if dc == nil {
			dc = NewDecomposer(m)
			dc.SetObs(o)
			held[m] = dc
		}
		strategy := StrategyFirst
		if rng.Intn(5) == 0 {
			strategy = StrategyThick
		}
		d := benchMatrix(m, 0.05+0.85*rng.Float64(), rng.Int63())
		dec, err := dc.DecomposeWith(d, strategy)
		if err != nil {
			t.Fatalf("decomposition %d (m=%d): %v", n, m, err)
		}
		digest(dec)
		shadow := d.Clone()
		served := matrix.NewSquare(m)
		for step := 0; step < 3 && greedyServe(rng, shadow, served); step++ {
			if dec, err = dc.Update(served); err != nil {
				t.Fatalf("decomposition %d (m=%d) update %d: %v", n, m, step, err)
			}
			digest(dec)
		}
	}
	updates, fallbacks := o.Updates.Value(), o.UpdateFallbacks.Value()
	if fallbacks == 0 || fallbacks == updates {
		t.Fatalf("%d of %d updates fell back: the pool must cover both repair outcomes", fallbacks, updates)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != termDigestWant {
		t.Fatalf("term sequences changed: digest %s, want %s", got, termDigestWant)
	}
}

// TestStrategyFirstLeavesNoWarmMatching pins why a StrategyFirst run
// never warm-starts the next one: its last term drains every remaining
// cell, so a complete extraction unmatches every row, and the next
// cold run's RepairRematch starts from an empty matching. Only
// StrategyThick leaves a matching (its last perfect probe) behind.
func TestStrategyFirstLeavesNoWarmMatching(t *testing.T) {
	for _, m := range []int{5, 20, 50} {
		dc := NewDecomposer(m)
		for seed := int64(1); seed <= 3; seed++ {
			if _, err := dc.Decompose(benchMatrix(m, 0.4, seed)); err != nil {
				t.Fatal(err)
			}
			if got := dc.matcher.MatchedCount(); got != 0 {
				t.Fatalf("m=%d seed %d: %d rows still matched after a first-fit run, want 0", m, seed, got)
			}
		}
		if _, err := dc.DecomposeWith(benchMatrix(m, 0.4, 4), StrategyThick); err != nil {
			t.Fatal(err)
		}
		if got := dc.matcher.MatchedCount(); got != m {
			t.Fatalf("m=%d: %d rows matched after a thick run, want %d", m, got, m)
		}
	}
}

// greedyServe serves one slot of a greedy maximal matching over
// shadow's positive cells, scanning rows and columns from random
// offsets, and takes up to three units from each matched pair (a few
// slots on a stable matching). It reports false when shadow is zero.
func greedyServe(rng *rand.Rand, shadow, served *matrix.Matrix) bool {
	m := shadow.Rows()
	served.Zero()
	colBusy := make([]bool, m)
	any := false
	r0, c0 := rng.Intn(m), rng.Intn(m)
	for r := 0; r < m; r++ {
		i := (r0 + r) % m
		for c := 0; c < m; c++ {
			j := (c0 + c) % m
			if v := shadow.At(i, j); v > 0 && !colBusy[j] {
				q := 1 + rng.Int63n(min(v, 3))
				served.Set(i, j, q)
				shadow.Add(i, j, -q)
				colBusy[j] = true
				any = true
				break
			}
		}
	}
	return any
}

// A Clone owns its storage: the lender's next call recycles the loan
// but must leave the copy alone.
func TestCloneSurvivesNextDecompose(t *testing.T) {
	d := benchMatrix(6, 0.7, 3)
	dc := NewDecomposer(6)
	loan, err := dc.Decompose(d)
	if err != nil {
		t.Fatal(err)
	}
	kept := loan.Clone()
	if _, err := dc.Decompose(benchMatrix(6, 0.7, 4)); err != nil {
		t.Fatal(err)
	}
	if err := kept.Verify(d); err != nil {
		t.Fatalf("clone changed under the lender's next call: %v", err)
	}
	if !kept.Augmented().GE(d) {
		t.Fatal("clone's lazily rebuilt D̃ does not dominate the demand")
	}
}
