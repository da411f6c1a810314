package bvn

import (
	"math/rand"
	"testing"

	"coflow/internal/matrix"
)

func TestStrategyString(t *testing.T) {
	if StrategyFirst.String() != "first" || StrategyThick.String() != "thick" {
		t.Fatal("Strategy.String broken")
	}
}

func TestDecomposeWithFirstMatchesDefault(t *testing.T) {
	d := matrix.MustFromRows([][]int64{{1, 2}, {2, 1}})
	a := decompose(t, d, StrategyFirst)
	b, err := NewDecomposer(2).Decompose(d)
	if err != nil {
		t.Fatal(err)
	}
	if a.Load != b.Load || len(a.Terms) != len(b.Terms) {
		t.Fatalf("StrategyFirst diverges from Decompose: %d/%d terms", len(a.Terms), len(b.Terms))
	}
}

func TestThickSatisfiesLemma4(t *testing.T) {
	rng := rand.New(rand.NewSource(515))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(7)
		d := randomMatrix(rng, m, 20)
		dec := decompose(t, d, StrategyThick)
		if err := dec.Verify(d); err != nil {
			t.Fatalf("trial %d: %v for %v", trial, err, d)
		}
	}
}

func TestThickExtractsLargestBottleneckFirst(t *testing.T) {
	// One dominant diagonal plus noise: the first extracted matching
	// must carry the largest possible multiplicity.
	d := matrix.MustFromRows([][]int64{
		{10, 1, 0},
		{0, 10, 1},
		{1, 0, 10},
	})
	dec := decompose(t, d, StrategyThick)
	if dec.Terms[0].Count < 10 {
		t.Fatalf("first thick term has count %d, want >= 10", dec.Terms[0].Count)
	}
	for i, j := range dec.Terms[0].Perm.To {
		if i != j {
			t.Fatalf("first thick matching should be the diagonal, got %v", dec.Terms[0].Perm.To)
		}
	}
}

// Thick extraction should not emit more terms than first-fit on
// aggregate (its whole purpose), and usually strictly fewer.
func TestThickEmitsNoMoreTermsOnAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(2121))
	totalFirst, totalThick := 0, 0
	for trial := 0; trial < 60; trial++ {
		m := 2 + rng.Intn(6)
		d := randomMatrix(rng, m, 30)
		a := decompose(t, d, StrategyFirst)
		b := decompose(t, d, StrategyThick)
		totalFirst += len(a.Terms)
		totalThick += len(b.Terms)
	}
	if totalThick > totalFirst {
		t.Fatalf("thick strategy emitted more terms in aggregate: %d vs %d", totalThick, totalFirst)
	}
}

func TestDecomposeWithZero(t *testing.T) {
	dec := decompose(t, matrix.NewSquare(3), StrategyThick)
	if len(dec.Terms) != 0 || dec.Load != 0 {
		t.Fatalf("zero matrix: %+v", dec)
	}
}
