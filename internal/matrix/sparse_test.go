package matrix

import (
	"math/rand"
	"testing"
)

func TestNewSparseValidation(t *testing.T) {
	cases := []struct {
		name    string
		entries []SparseEntry
	}{
		{"empty", nil},
		{"all zero values", []SparseEntry{{Row: 1, Col: 2, Val: 0}}},
		{"negative row", []SparseEntry{{Row: -1, Col: 0, Val: 1}}},
		{"negative col", []SparseEntry{{Row: 0, Col: -2, Val: 1}}},
		{"negative value", []SparseEntry{{Row: 0, Col: 0, Val: -3}}},
	}
	for _, tc := range cases {
		if _, err := NewSparse(tc.entries); err == nil {
			t.Errorf("%s: NewSparse accepted invalid input", tc.name)
		}
	}
}

func TestNewSparseAccumulatesDuplicates(t *testing.T) {
	s, err := NewSparse([]SparseEntry{
		{Row: 3, Col: 7, Val: 2},
		{Row: 0, Col: 1, Val: 5},
		{Row: 3, Col: 7, Val: 4},
		{Row: 3, Col: 2, Val: 1},
		{Row: 5, Col: 1, Val: 0}, // dropped
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (duplicates merged, zeros dropped)", s.Len())
	}
	d := s.Dense(8)
	if got := d.At(3, 7); got != 6 {
		t.Errorf("cell (3,7) = %d, want 6", got)
	}
	if s.Total() != 12 {
		t.Errorf("Total = %d, want 12", s.Total())
	}
	// ρ: row 3 sums to 7, col 1 to 5, col 7 to 6.
	if s.Load() != 7 {
		t.Errorf("Load = %d, want 7", s.Load())
	}
}

func TestSparseCompactPorts(t *testing.T) {
	s, err := NewSparse([]SparseEntry{
		{Row: 100, Col: 400, Val: 1},
		{Row: 100, Col: 7, Val: 2},
		{Row: 9, Col: 400, Val: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRows := []int{9, 100}
	wantCols := []int{7, 400}
	if s.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", s.NumRows())
	}
	for r, want := range wantRows {
		if got, _, _, _ := s.Row(r); got != want {
			t.Errorf("row %d port = %d, want %d", r, got, want)
		}
	}
	if got := s.colID; len(got) != 2 || got[0] != wantCols[0] || got[1] != wantCols[1] {
		t.Errorf("col ports = %v, want %v", got, wantCols)
	}
	// CSR layout: entries grouped by row, ascending col within a row.
	_, _, lo, hi := s.Row(0) // compact row 0 = port 9
	if hi-lo != 1 {
		t.Fatalf("row 9 has %d entries, want 1", hi-lo)
	}
	if r, c, v := s.Entry(lo); r != 9 || c != 400 || v != 3 {
		t.Errorf("row 9 entry = (%d,%d,%d), want (9,400,3)", r, c, v)
	}
	_, _, lo, hi = s.Row(1) // compact row 1 = port 100
	if hi-lo != 2 {
		t.Fatalf("row 100 has %d entries, want 2", hi-lo)
	}
	if _, c, _ := s.Entry(lo); c != 7 {
		t.Errorf("row 100 first col = %d, want 7 (ascending)", c)
	}
}

func TestSparseDecPanics(t *testing.T) {
	s, err := NewSparse([]SparseEntry{{Row: 0, Col: 0, Val: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int64{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Dec(0, %d) on value 2 did not panic", d)
				}
			}()
			s.Dec(0, d)
		}()
	}
}

// TestSparseIncrementalAgainstDense is the core invariant check: under
// random drain sequences the incrementally maintained total and lazy
// load must always equal a from-scratch recompute on the equivalent
// dense matrix. This exercises the dirty-flag path both ways — drains
// that touch the maximal row/column (must invalidate) and drains that
// don't (must keep the cache).
func TestSparseIncrementalAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const m = 12
	for trial := 0; trial < 200; trial++ {
		var entries []SparseEntry
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if rng.Intn(3) == 0 {
					entries = append(entries, SparseEntry{Row: i, Col: j, Val: int64(1 + rng.Intn(9))})
				}
			}
		}
		if len(entries) == 0 {
			continue
		}
		s, err := NewSparse(entries)
		if err != nil {
			t.Fatal(err)
		}
		for s.Total() > 0 {
			e := rng.Intn(s.Len())
			if _, _, v := s.Entry(e); v > 0 {
				s.Dec(e, 1+rng.Int63n(v))
			}
			ref := s.Dense(m)
			if s.Total() != ref.Total() {
				t.Fatalf("trial %d: incremental total %d, dense %d", trial, s.Total(), ref.Total())
			}
			if s.Load() != ref.Load() {
				t.Fatalf("trial %d: incremental load %d, dense %d", trial, s.Load(), ref.Load())
			}
			for ci, p := range s.colID {
				if s.colSum[ci] != ref.ColSum(p) {
					t.Fatalf("trial %d: col %d sum %d, dense %d", trial, p, s.colSum[ci], ref.ColSum(p))
				}
			}
			checkRowsAgainstDense(t, s, ref)
		}
	}
}

// checkRowsAgainstDense checks the compact-row accessor against the
// dense matrix: rows come in ascending port order and tile the cells
// [0, Len) in order; each row's live sum is the dense row sum, its
// cells all lie in that row with ascending columns and add up to it;
// the rows together hold all the dense demand.
func checkRowsAgainstDense(t *testing.T, s *Sparse, ref *Matrix) {
	t.Helper()
	next, prevPort := 0, -1
	var total int64
	for r := 0; r < s.NumRows(); r++ {
		port, sum, lo, hi := s.Row(r)
		if port <= prevPort || lo != next || hi <= lo {
			t.Fatalf("row %d: port %d range [%d,%d) after port %d ending at %d", r, port, lo, hi, prevPort, next)
		}
		if sum != ref.RowSum(port) {
			t.Fatalf("row %d (port %d): live sum %d, dense %d", r, port, sum, ref.RowSum(port))
		}
		var cells int64
		prevCol := -1
		for e := lo; e < hi; e++ {
			row, col, val := s.Entry(e)
			if row != port || col <= prevCol || val != ref.At(row, col) {
				t.Fatalf("row %d (port %d): cell %d is (%d,%d)=%d after col %d, dense %d",
					r, port, e, row, col, val, prevCol, ref.At(row, col))
			}
			cells += val
			prevCol = col
		}
		if cells != sum {
			t.Fatalf("row %d (port %d): cells add up to %d, live sum %d", r, port, cells, sum)
		}
		next, prevPort, total = hi, port, total+sum
	}
	if next != s.Len() {
		t.Fatalf("rows cover cells [0,%d), Len is %d", next, s.Len())
	}
	if total != ref.Total() {
		t.Fatalf("rows hold %d units, dense %d", total, ref.Total())
	}
}

// TestSparseLoadStaysCleanOffBottleneck pins the dirty-flag behaviour:
// a drain on a non-maximal row and column must not trigger a rescan
// (the cached ρ is provably still correct), while draining the
// bottleneck itself must.
func TestSparseLoadStaysCleanOffBottleneck(t *testing.T) {
	// Row 0 sums to 10 (bottleneck); cell (1,1) is on a row and column
	// summing to 3 and 4.
	s, err := NewSparse([]SparseEntry{
		{Row: 0, Col: 0, Val: 6},
		{Row: 0, Col: 1, Val: 4},
		{Row: 1, Col: 1, Val: 0},
		{Row: 1, Col: 2, Val: 3},
		{Row: 2, Col: 2, Val: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// (1,2): row 1 sums 3, col 2 sums 4 — off the bottleneck.
	var off int
	for e := 0; e < s.Len(); e++ {
		if r, c, _ := s.Entry(e); r == 1 && c == 2 {
			off = e
		}
	}
	if s.Load() != 10 {
		t.Fatalf("Load = %d, want 10", s.Load())
	}
	s.Dec(off, 1)
	if s.loadDirty {
		t.Error("drain off the bottleneck marked the load dirty")
	}
	if s.Load() != 10 {
		t.Errorf("Load = %d after off-bottleneck drain, want 10", s.Load())
	}
	// Drain the bottleneck row: must invalidate and recompute.
	var on int
	for e := 0; e < s.Len(); e++ {
		if r, c, _ := s.Entry(e); r == 0 && c == 0 {
			on = e
		}
	}
	s.Dec(on, 6)
	if !s.loadDirty {
		t.Error("drain on the bottleneck did not mark the load dirty")
	}
	// Row 0 now sums 4; col sums are 0,4,3 → ρ = 4.
	if s.Load() != 4 {
		t.Errorf("Load = %d after bottleneck drain, want 4", s.Load())
	}
}
