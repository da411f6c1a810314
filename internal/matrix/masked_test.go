package matrix

import (
	"math/rand"
	"testing"
)

func TestMaskedStatsBasic(t *testing.T) {
	s, err := NewSparse([]SparseEntry{
		{Row: 0, Col: 1, Val: 5},
		{Row: 0, Col: 2, Val: 3},
		{Row: 1, Col: 2, Val: 4},
		{Row: 3, Col: 0, Val: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	// No mask: masked stats agree with the unmasked ones.
	if got := s.LoadMasked(nil); got != s.Load() {
		t.Fatalf("LoadMasked(nil) = %d, want %d", got, s.Load())
	}
	if got := s.TotalMasked(nil); got != s.Total() {
		t.Fatalf("TotalMasked(nil) = %d, want %d", got, s.Total())
	}
	down := make([]bool, 4)
	down[2] = true // strands (0,2) and (1,2)
	if got := s.TotalMasked(down); got != 7 {
		t.Fatalf("TotalMasked(down 2) = %d, want 7", got)
	}
	// Serviceable submatrix: (0,1)=5, (3,0)=2 -> bottleneck is row 0 / col 1 at 5.
	if got := s.LoadMasked(down); got != 5 {
		t.Fatalf("LoadMasked(down 2) = %d, want 5", got)
	}
	down[0] = true // additionally strands (0,*) rows and (3,0)
	if got := s.TotalMasked(down); got != 0 {
		t.Fatalf("TotalMasked(down 0,2) = %d, want 0", got)
	}
	if got := s.LoadMasked(down); got != 0 {
		t.Fatalf("LoadMasked(down 0,2) = %d, want 0", got)
	}
}

// TestMaskedStatsAgainstDense cross-checks the masked statistics
// against a brute-force computation over random matrices, masks, and
// drain sequences.
func TestMaskedStatsAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(6)
		var entries []SparseEntry
		for r := 0; r < m; r++ {
			for c := 0; c < m; c++ {
				if rng.Intn(2) == 0 {
					entries = append(entries, SparseEntry{Row: r, Col: c, Val: int64(1 + rng.Intn(5))})
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
		down := make([]bool, m)
		for p := range down {
			down[p] = rng.Intn(3) == 0
		}
		for step := 0; step < 10; step++ {
			// Brute force over the current entry values.
			rows := make([]int64, m)
			cols := make([]int64, m)
			var total int64
			for e := 0; e < s.Len(); e++ {
				r, c, v := s.Entry(e)
				if down[r] || down[c] {
					continue
				}
				rows[r] += v
				cols[c] += v
				total += v
			}
			var load int64
			for p := 0; p < m; p++ {
				if rows[p] > load {
					load = rows[p]
				}
				if cols[p] > load {
					load = cols[p]
				}
			}
			if got := s.LoadMasked(down); got != load {
				t.Fatalf("trial %d step %d: LoadMasked = %d, want %d", trial, step, got, load)
			}
			if got := s.TotalMasked(down); got != total {
				t.Fatalf("trial %d step %d: TotalMasked = %d, want %d", trial, step, got, total)
			}
			// Drain a random positive cell and re-check.
			e := rng.Intn(s.Len())
			if _, _, v := s.Entry(e); v > 0 {
				s.Dec(e, 1)
			}
		}
	}
}

func TestMaskedStatsDoNotAllocate(t *testing.T) {
	s, err := NewSparse([]SparseEntry{
		{Row: 0, Col: 1, Val: 5},
		{Row: 1, Col: 2, Val: 4},
		{Row: 2, Col: 0, Val: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	down := make([]bool, 3)
	down[1] = true
	allocs := testing.AllocsPerRun(100, func() {
		_ = s.LoadMasked(down)
		_ = s.TotalMasked(down)
	})
	if allocs != 0 {
		t.Fatalf("masked stats allocate %.1f times per call, want 0", allocs)
	}
}
