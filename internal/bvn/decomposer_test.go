package bvn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"coflow/internal/matrix"
)

// TestDecomposeDoesNotAllocate is the steady-state allocation gate
// mirroring online's TestStepDoesNotAllocate: once a Decomposer's
// scratch and term pool are warm, Decompose must run without a single
// heap allocation.
func TestDecomposeDoesNotAllocate(t *testing.T) {
	t.Run("first", func(t *testing.T) {
		d := benchMatrix(40, 0.5, 23)
		dc := NewDecomposer(40)
		if _, err := dc.Decompose(d); err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(10, func() {
			if _, err := dc.Decompose(d); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("warm Decompose allocates %.1f times per run, want 0", avg)
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
func benchDecomposer(b *testing.B, m int, density float64) {
	b.Helper()
	d := benchMatrix(m, density, 17)
	dc := NewDecomposer(m)
	if _, err := dc.Decompose(d); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dc.Decompose(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecomposerM50Dense(b *testing.B)   { benchDecomposer(b, 50, 0.5) }
func BenchmarkDecomposerM100Sparse(b *testing.B) { benchDecomposer(b, 100, 0.1) }
func BenchmarkDecomposerM100Dense(b *testing.B)  { benchDecomposer(b, 100, 0.5) }

// termDigestWant is the SHA-256 TestTermSequencesPinned computes. A
// change to it is a change to every schedule built on a decomposition:
// it must be deliberate and visible, never a side effect of a speed-up.
const termDigestWant = "e35b9995fb72a948dcba26a1aba19fc47bfdf302dc36a705fbd01d46a671d321"

// TestTermSequencesPinned pins the exact term sequences Algorithm 1
// emits — count, permutation and order — over a seeded pool of 360
// decompositions. Decomposers are held per size, so a term that
// depended on the previous decomposition would move the digest.
func TestTermSequencesPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sizes := []int{2, 3, 4, 6, 9, 14, 20, 32, 50, 64, 100}
	held := map[int]*Decomposer{}
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
			held[m] = dc
		}
		rng.Intn(5) // a retired strategy draw, kept so the stream and the digest stay put
		d := benchMatrix(m, 0.05+0.85*rng.Float64(), rng.Int63())
		dec, err := dc.Decompose(d)
		if err != nil {
			t.Fatalf("decomposition %d (m=%d): %v", n, m, err)
		}
		digest(dec)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != termDigestWant {
		t.Fatalf("term sequences changed: digest %s, want %s", got, termDigestWant)
	}
}

// TestStrategyFirstLeavesNoWarmMatching pins that a complete
// extraction ends with every row unmatched: its last term drains every
// remaining cell. The Reset at the top of extractFirstAll makes the
// next decomposition cold whatever the matcher holds; this shows it
// holds nothing.
func TestStrategyFirstLeavesNoWarmMatching(t *testing.T) {
	for _, m := range []int{5, 20, 50} {
		dc := NewDecomposer(m)
		for seed := int64(1); seed <= 3; seed++ {
			if _, err := dc.Decompose(benchMatrix(m, 0.4, seed)); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < m; i++ {
				if j := dc.matcher.Mate(i); j != matrix.Unmatched {
					t.Fatalf("m=%d seed %d: row %d still matched to %d after a run", m, seed, i, j)
				}
			}
		}
	}
}

func TestDecomposeWithFirstMatchesDefault(t *testing.T) {
	d := matrix.MustFromRows([][]int64{{1, 2}, {2, 1}})
	a, err := NewDecomposer(2).DecomposeWith(d, StrategyFirst)
	if err != nil {
		t.Fatal(err)
	}
	b := decompose(t, d)
	if a.Load != b.Load || len(a.Terms) != len(b.Terms) {
		t.Fatalf("DecomposeWith diverges from Decompose: %d/%d terms", len(a.Terms), len(b.Terms))
	}
}

func TestDecomposeWithZero(t *testing.T) {
	dec, err := NewDecomposer(3).DecomposeWith(matrix.NewSquare(3), StrategyFirst)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Terms) != 0 || dec.Load != 0 {
		t.Fatalf("zero matrix: %+v", dec)
	}
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
