package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %d×%d, want 3×4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("fresh matrix not zero at (%d,%d)", i, j)
			}
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {2, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]int64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("wrong entries: %v", m)
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("nil rows accepted")
	}
	if _, err := FromRows([][]int64{{}}); err == nil {
		t.Error("empty row accepted")
	}
	if _, err := FromRows([][]int64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := FromRows([][]int64{{1, -2}}); err == nil {
		t.Error("negative entry accepted")
	}
}

func TestSetNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Set(-1) did not panic")
		}
	}()
	New(2, 2).Set(0, 0, -1)
}

func TestAddGuardsNegative(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 5)
	m.Add(0, 0, -3)
	if m.At(0, 0) != 2 {
		t.Fatalf("Add: got %d, want 2", m.At(0, 0))
	}
	defer func() {
		if recover() == nil {
			t.Error("Add below zero did not panic")
		}
	}()
	m.Add(0, 0, -3)
}

func TestSums(t *testing.T) {
	m := MustFromRows([][]int64{
		{1, 2, 0},
		{0, 3, 4},
	})
	if got := m.RowSum(0); got != 3 {
		t.Errorf("RowSum(0) = %d, want 3", got)
	}
	if got := m.RowSum(1); got != 7 {
		t.Errorf("RowSum(1) = %d, want 7", got)
	}
	if got := m.ColSum(1); got != 5 {
		t.Errorf("ColSum(1) = %d, want 5", got)
	}
	wantRows := []int64{3, 7}
	for i, w := range wantRows {
		if m.RowSums()[i] != w {
			t.Errorf("RowSums()[%d] = %d, want %d", i, m.RowSums()[i], w)
		}
	}
	wantCols := []int64{1, 5, 4}
	for j, w := range wantCols {
		if m.ColSums()[j] != w {
			t.Errorf("ColSums()[%d] = %d, want %d", j, m.ColSums()[j], w)
		}
	}
	if m.Total() != 10 {
		t.Errorf("Total = %d, want 10", m.Total())
	}
}

func TestLoadPaperExample(t *testing.T) {
	// The Figure 1 coflow [[1,2],[2,1]] has ρ = 3 and can be cleared
	// in exactly 3 matchings.
	d := MustFromRows([][]int64{{1, 2}, {2, 1}})
	if got := d.Load(); got != 3 {
		t.Fatalf("Load = %d, want 3", got)
	}
}

func TestLoadColumnDominates(t *testing.T) {
	d := MustFromRows([][]int64{
		{1, 0},
		{9, 0},
	})
	if got := d.Load(); got != 10 {
		t.Fatalf("Load = %d, want 10 (column sum)", got)
	}
}

func TestLoadZero(t *testing.T) {
	if got := NewSquare(4).Load(); got != 0 {
		t.Fatalf("Load of zero matrix = %d, want 0", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := MustFromRows([][]int64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
	if !m.Equal(m.Clone()) {
		t.Fatal("Clone not equal to original")
	}
}

func TestAddSubMatrix(t *testing.T) {
	a := MustFromRows([][]int64{{1, 2}, {3, 4}})
	b := MustFromRows([][]int64{{5, 6}, {7, 8}})
	s := a.Clone()
	s.AddMatrix(b)
	want := MustFromRows([][]int64{{6, 8}, {10, 12}})
	if !s.Equal(want) {
		t.Fatalf("AddMatrix: got %v, want %v", s, want)
	}
	s.SubMatrix(b)
	if !s.Equal(a) {
		t.Fatalf("SubMatrix: got %v, want %v", s, a)
	}
}

func TestSubMatrixPanicsOnNegative(t *testing.T) {
	a := MustFromRows([][]int64{{1}})
	b := MustFromRows([][]int64{{2}})
	defer func() {
		if recover() == nil {
			t.Error("SubMatrix below zero did not panic")
		}
	}()
	a.SubMatrix(b)
}

func TestDimensionMismatchPanics(t *testing.T) {
	a := New(2, 2)
	b := New(2, 3)
	for name, f := range map[string]func(){
		"AddMatrix": func() { a.Clone().AddMatrix(b) },
		"SubMatrix": func() { a.Clone().SubMatrix(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched dims did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestIsZeroAndNonZeroCount(t *testing.T) {
	m := NewSquare(3)
	if !m.IsZero() {
		t.Fatal("zero matrix not IsZero")
	}
	if m.NonZeroCount() != 0 {
		t.Fatal("zero matrix has nonzero count")
	}
	m.Set(1, 2, 5)
	m.Set(0, 0, 1)
	if m.IsZero() {
		t.Fatal("nonzero matrix reported IsZero")
	}
	if got := m.NonZeroCount(); got != 2 {
		t.Fatalf("NonZeroCount = %d, want 2", got)
	}
}

func TestIsDiagonal(t *testing.T) {
	d := MustFromRows([][]int64{{3, 0}, {0, 7}})
	if !d.IsDiagonal() {
		t.Error("diagonal matrix not detected")
	}
	nd := MustFromRows([][]int64{{3, 1}, {0, 7}})
	if nd.IsDiagonal() {
		t.Error("non-diagonal matrix reported diagonal")
	}
}

func TestGE(t *testing.T) {
	a := MustFromRows([][]int64{{2, 2}, {2, 2}})
	b := MustFromRows([][]int64{{1, 2}, {2, 2}})
	if !a.GE(b) {
		t.Error("a >= b expected")
	}
	if b.GE(a) {
		t.Error("b >= a unexpected")
	}
	if a.GE(New(2, 3)) {
		t.Error("GE across shapes should be false")
	}
}

func TestString(t *testing.T) {
	m := MustFromRows([][]int64{{1, 2}, {3, 4}})
	if got, want := m.String(), "[[1 2] [3 4]]"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestPermutationBasics(t *testing.T) {
	p := NewPermutation(3)
	if p.Size() != 0 {
		t.Fatal("fresh permutation has matches")
	}
	if p.IsPerfect() {
		t.Fatal("empty permutation reported perfect")
	}
	if !p.IsValid() {
		t.Fatal("empty permutation reported invalid")
	}
	p.To[0] = 1
	p.To[1] = 0
	p.To[2] = 2
	if !p.IsPerfect() || !p.IsValid() || p.Size() != 3 {
		t.Fatalf("perfect permutation misreported: %+v", p)
	}
	dup := NewPermutation(2)
	dup.To[0] = 1
	dup.To[1] = 1
	if dup.IsValid() {
		t.Fatal("duplicate column accepted")
	}
}

func TestPermutationMatrix(t *testing.T) {
	p := NewPermutation(2)
	p.To[0] = 1
	got := p.Matrix()
	want := MustFromRows([][]int64{{0, 1}, {0, 0}})
	if !got.Equal(want) {
		t.Fatalf("Permutation.Matrix = %v, want %v", got, want)
	}
}

func TestPermutationClone(t *testing.T) {
	p := NewPermutation(2)
	p.To[0] = 1
	c := p.Clone()
	c.To[0] = 0
	if p.To[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

// randomMatrix builds a random m×m matrix with entries in [0, maxV].
func randomMatrix(rng *rand.Rand, m int, maxV int64) *Matrix {
	out := NewSquare(m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			out.Set(i, j, rng.Int63n(maxV+1))
		}
	}
	return out
}

func TestLoadPropertyBounds(t *testing.T) {
	// ρ(D) ≥ every row and column sum; ρ(D) ≤ Total; and
	// ρ(A+B) ≤ ρ(A)+ρ(B) (subadditivity used implicitly by grouping).
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(6)
		a := randomMatrix(r, m, 9)
		b := randomMatrix(r, m, 9)
		la, lb := a.Load(), b.Load()
		for i := 0; i < m; i++ {
			if a.RowSum(i) > la || a.ColSum(i) > la {
				return false
			}
		}
		if la > a.Total() {
			return false
		}
		sum := a.Clone()
		sum.AddMatrix(b)
		return sum.Load() <= la+lb
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		m := 1 + rng.Intn(5)
		d := randomMatrix(rng, m, 12)
		var want int64
		for i := 0; i < m; i++ {
			var rs, cs int64
			for j := 0; j < m; j++ {
				rs += d.At(i, j)
				cs += d.At(j, i)
			}
			if rs > want {
				want = rs
			}
			if cs > want {
				want = cs
			}
		}
		if got := d.Load(); got != want {
			t.Fatalf("trial %d: Load = %d, want %d for %v", trial, got, want, d)
		}
	}
}
