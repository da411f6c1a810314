package bvn

import (
	"math/rand"
	"testing"

	"coflow/internal/matrix"
)

func TestAugmentAlreadyBalanced(t *testing.T) {
	d := matrix.MustFromRows([][]int64{
		{1, 2},
		{2, 1},
	})
	a := Augment(d)
	if !a.Equal(d) {
		t.Fatalf("balanced matrix changed by Augment: %v", a)
	}
}

func TestAugmentSkewed(t *testing.T) {
	d := matrix.MustFromRows([][]int64{
		{5, 0},
		{0, 1},
	})
	a := Augment(d)
	if a.Load() != 5 {
		t.Fatalf("augmented load = %d, want 5", a.Load())
	}
	for i := 0; i < 2; i++ {
		if a.RowSum(i) != 5 || a.ColSum(i) != 5 {
			t.Fatalf("row/col %d not saturated: %v", i, a)
		}
	}
	if !a.GE(d) {
		t.Fatalf("augmented does not dominate original: %v", a)
	}
}

func TestAugmentZero(t *testing.T) {
	d := matrix.NewSquare(3)
	a := Augment(d)
	if !a.IsZero() {
		t.Fatalf("zero matrix augmented to %v", a)
	}
}

func TestAugmentDoesNotModifyInput(t *testing.T) {
	d := matrix.MustFromRows([][]int64{{3, 0}, {0, 1}})
	orig := d.Clone()
	Augment(d)
	if !d.Equal(orig) {
		t.Fatal("Augment modified its input")
	}
}

func TestAugmentPanicsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Augment on non-square did not panic")
		}
	}()
	Augment(matrix.New(2, 3))
}

// decompose runs Algorithm 1 on a Decomposer built for this one call,
// so nothing can recycle the result under the test.
func decompose(tb testing.TB, d *matrix.Matrix, strategy Strategy) *Decomposition {
	tb.Helper()
	dec, err := NewDecomposer(d.Rows()).DecomposeWith(d, strategy)
	if err != nil {
		tb.Fatalf("DecomposeWith(%s) on %v: %v", strategy, d, err)
	}
	return dec
}

func TestDecomposeFigure1(t *testing.T) {
	// The paper's Figure 1 coflow: ρ = 3, finishes in 3 slots.
	d := matrix.MustFromRows([][]int64{
		{1, 2},
		{2, 1},
	})
	dec := decompose(t, d, StrategyFirst)
	if dec.Load != 3 {
		t.Fatalf("Load = %d, want 3", dec.Load)
	}
	if err := dec.Verify(d); err != nil {
		t.Fatal(err)
	}
	if len(dec.Terms) > 4 {
		t.Fatalf("too many terms: %d > m²", len(dec.Terms))
	}
}

func TestDecomposeZero(t *testing.T) {
	dec := decompose(t, matrix.NewSquare(4), StrategyFirst)
	if dec.Load != 0 || len(dec.Terms) != 0 {
		t.Fatalf("zero matrix decomposition: load=%d terms=%d", dec.Load, len(dec.Terms))
	}
	if err := dec.Verify(matrix.NewSquare(4)); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeSingleEntry(t *testing.T) {
	d := matrix.NewSquare(1)
	d.Set(0, 0, 7)
	dec := decompose(t, d, StrategyFirst)
	if dec.Load != 7 || len(dec.Terms) != 1 || dec.Terms[0].Count != 7 {
		t.Fatalf("unexpected decomposition: %+v", dec)
	}
}

func TestDecomposeIdentityLike(t *testing.T) {
	d := matrix.MustFromRows([][]int64{
		{4, 0, 0},
		{0, 4, 0},
		{0, 0, 4},
	})
	dec := decompose(t, d, StrategyFirst)
	if dec.Load != 4 {
		t.Fatalf("Load = %d, want 4", dec.Load)
	}
	if len(dec.Terms) != 1 {
		t.Fatalf("diagonal matrix should decompose into one term, got %d", len(dec.Terms))
	}
	if err := dec.Verify(d); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeAppendixBMatrices(t *testing.T) {
	// The two coflows from Appendix B.
	d1 := matrix.MustFromRows([][]int64{
		{9, 0, 9},
		{0, 9, 0},
		{9, 0, 9},
	})
	d2 := matrix.MustFromRows([][]int64{
		{1, 10, 1},
		{10, 1, 10},
		{1, 10, 1},
	})
	if d1.Load() != 18 {
		t.Fatalf("ρ(D1) = %d, want 18", d1.Load())
	}
	// max(I2, J2) for the combined flows = 30 (paper's t2).
	sum := d1.Clone()
	sum.AddMatrix(d2)
	if sum.Load() != 30 {
		t.Fatalf("ρ(D1+D2) = %d, want 30", sum.Load())
	}
	for _, d := range []*matrix.Matrix{d1, d2, sum} {
		dec := decompose(t, d, StrategyFirst)
		if err := dec.Verify(d); err != nil {
			t.Fatal(err)
		}
	}
}

func randomMatrix(rng *rand.Rand, m int, maxV int64) *matrix.Matrix {
	out := matrix.NewSquare(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if rng.Intn(3) > 0 { // ~2/3 density
				out.Set(i, j, rng.Int63n(maxV+1))
			}
		}
	}
	return out
}

// The central property of Lemma 4 on random inputs.
func TestDecomposeRandomVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(2015))
	for trial := 0; trial < 300; trial++ {
		m := 1 + rng.Intn(8)
		d := randomMatrix(rng, m, 20)
		dec := decompose(t, d, StrategyFirst)
		if err := dec.Verify(d); err != nil {
			t.Fatalf("trial %d: %v for %v", trial, err, d)
		}
	}
}

// Scheduling the terms must serve every unit of the ORIGINAL demand:
// for each entry, the slots allocated on (i,j) across terms (q_u where
// Π_u matches i→j) must be ≥ d_ij.
func TestDecompositionCoversDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 100; trial++ {
		m := 2 + rng.Intn(5)
		d := randomMatrix(rng, m, 15)
		dec := decompose(t, d, StrategyFirst)
		cover := matrix.NewSquare(m)
		for _, term := range dec.Terms {
			for i, j := range term.Perm.To {
				if j != matrix.Unmatched {
					cover.Add(i, j, term.Count)
				}
			}
		}
		if !cover.GE(d) {
			t.Fatalf("trial %d: coverage %v does not dominate demand %v", trial, cover, d)
		}
	}
}

// Augmentation must terminate within 2m-1 entry increases; we check
// the count of entries that changed.
func TestAugmentBoundedChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(8)
		d := randomMatrix(rng, m, 9)
		a := Augment(d)
		changed := 0
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if a.At(i, j) != d.At(i, j) {
					changed++
				}
			}
		}
		if changed > 2*m-1 && d.Load() > 0 {
			t.Fatalf("trial %d: %d entries changed, bound is 2m-1=%d", trial, changed, 2*m-1)
		}
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	d := matrix.MustFromRows([][]int64{{1, 2}, {2, 1}})
	dec := decompose(t, d, StrategyFirst)
	dec.Terms[0].Count++
	if err := dec.Verify(d); err == nil {
		t.Fatal("Verify accepted a corrupted decomposition")
	}
}
