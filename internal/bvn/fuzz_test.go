package bvn

import (
	"slices"
	"testing"

	"coflow/internal/matrix"
)

// FuzzDecompose drives Algorithm 1 with arbitrary small matrices and
// checks every Lemma 4 invariant via Verify. One Decomposer per size is
// held across inputs, and its terms must equal a fresh Decomposer's: a
// decomposition never depends on the one before it. Run the seed
// corpus with `go test`; explore with
// `go test -run '^$' -fuzz=FuzzDecompose ./internal/bvn` (in make fuzz).
func FuzzDecompose(f *testing.F) {
	f.Add([]byte{1, 2, 2, 1})                // Figure 1
	f.Add([]byte{0, 0, 0, 0})                // zero matrix
	f.Add([]byte{9, 0, 9, 0, 9, 0, 9, 0, 9}) // Appendix B shape
	f.Add([]byte{255})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 1, 5, 5, 5, 5, 5, 5, 5})

	held := map[int]*Decomposer{}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Derive the largest square matrix the payload can fill.
		m := 1
		for (m+1)*(m+1) <= len(data) && m+1 <= 6 {
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
		dc := held[m]
		if dc == nil {
			dc = NewDecomposer(m)
			held[m] = dc
		}
		dec, err := dc.Decompose(d)
		if err != nil {
			t.Fatalf("held Decomposer on %v: %v", d, err)
		}
		if err := dec.Verify(d); err != nil {
			t.Fatalf("invariant violated on %v: %v", d, err)
		}
		fresh := decompose(t, d)
		if dec.Load != fresh.Load || !slices.EqualFunc(dec.Terms, fresh.Terms, func(a, b Term) bool {
			return a.Count == b.Count && slices.Equal(a.Perm.To, b.Perm.To)
		}) {
			t.Fatalf("held Decomposer's terms %v differ from a fresh one's %v on %v", dec.Terms, fresh.Terms, d)
		}
	})
}
