package matching

import (
	"math/rand"
	"testing"

	"coflow/internal/matrix"
)

// checkMatching verifies p is a valid matching on the theta-threshold
// graph of d and returns its cardinality.
func checkMatching(t testing.TB, d *matrix.Matrix, theta int64, p matrix.Permutation) int {
	t.Helper()
	n := d.Rows()
	usedR := make([]bool, n)
	size := 0
	for u, v := range p.To {
		if v == matrix.Unmatched {
			continue
		}
		if v < 0 || v >= n {
			t.Fatalf("match %d→%d out of range", u, v)
		}
		if usedR[v] {
			t.Fatalf("right vertex %d matched twice", v)
		}
		usedR[v] = true
		if d.At(u, v) < theta {
			t.Fatalf("match %d→%d is not an edge (d=%d < θ=%d)", u, v, d.At(u, v), theta)
		}
		size++
	}
	return size
}

// mutate applies one random shrink or grow step to d: shrinking zeroes
// or decrements a positive entry (the BvN/slot-drain direction the warm
// start is tuned for), growing raises a random entry. Roughly 2/3 of
// the steps shrink so sequences drift toward sparse supports.
func mutate(rng *rand.Rand, d *matrix.Matrix) {
	n := d.Rows()
	i, j := rng.Intn(n), rng.Intn(n)
	switch v := d.At(i, j); {
	case rng.Intn(3) != 0 && v > 0:
		if rng.Intn(2) == 0 {
			d.Set(i, j, 0) // drop the edge entirely
		} else {
			d.Set(i, j, v-1)
		}
	default:
		d.Set(i, j, v+int64(1+rng.Intn(4)))
	}
}

// match runs the matcher's matrix entry point into a fresh buffer.
func match(mt *Matcher, d *matrix.Matrix, theta int64) matrix.Permutation {
	return mt.MatchSupportAtLeastInto(make([]int, d.Rows()), d, theta)
}

// TestMatcherMatchesBruteForce is the satellite property test: across
// 1000 random shrink/grow demand sequences, a single warm-started
// Matcher must report the same maximum-matching cardinality as the
// exponential brute-force reference on every intermediate graph, and
// every matching it returns must be valid.
func TestMatcherMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const sequences = 1000
	for seq := 0; seq < sequences; seq++ {
		n := 2 + rng.Intn(5) // brute force is exponential: keep n ≤ 6
		d := matrix.NewSquare(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Intn(3) == 0 {
					d.Set(i, j, int64(1+rng.Intn(5)))
				}
			}
		}
		mt := NewMatcher(n)
		steps := 1 + rng.Intn(12)
		for s := 0; s < steps; s++ {
			mutate(rng, d)
			p := match(mt, d, 1)
			got := checkMatching(t, d, 1, p)
			want := BruteForceMaxMatching(SupportGraph(d))
			if got != want {
				t.Fatalf("seq %d step %d: warm matcher found %d, brute force %d on\n%v",
					seq, s, got, want, d)
			}
		}
	}
}

// TestMatcherThresholdMatchesBruteForce covers a threshold above 1, the
// entry point the bottleneck-extraction binary search probes with a
// moving θ on a fixed matrix — the other warm-start pattern in the
// pipeline (edges only ever disappear as θ rises, then the whole edge
// set changes for the next term).
func TestMatcherThresholdMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for seq := 0; seq < 200; seq++ {
		n := 2 + rng.Intn(5)
		d := matrix.NewSquare(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					d.Set(i, j, int64(1+rng.Intn(6)))
				}
			}
		}
		mt := NewMatcher(n)
		for theta := int64(1); theta <= 6; theta++ {
			p := match(mt, d, theta)
			got := checkMatching(t, d, theta, p)
			ref := NewGraph(n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d.At(i, j) >= theta {
						ref.AddEdge(i, j)
					}
				}
			}
			if want := BruteForceMaxMatching(ref); got != want {
				t.Fatalf("seq %d θ=%d: warm matcher found %d, brute force %d on\n%v",
					seq, theta, got, want, d)
			}
		}
	}
}

// TestMatcherAgreesWithColdHopcroftKarp cross-checks the warm engine
// against the package's cold solver on larger graphs where brute force
// is out of reach (cardinality only — matchings themselves may differ).
func TestMatcherAgreesWithColdHopcroftKarp(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for seq := 0; seq < 50; seq++ {
		n := 10 + rng.Intn(30)
		d := matrix.NewSquare(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Intn(4) == 0 {
					d.Set(i, j, int64(1+rng.Intn(3)))
				}
			}
		}
		mt := NewMatcher(n)
		for s := 0; s < 20; s++ {
			mutate(rng, d)
			got := checkMatching(t, d, 1, match(mt, d, 1))
			if want := HopcroftKarp(SupportGraph(d)).Size(); got != want {
				t.Fatalf("seq %d step %d: warm %d, cold %d", seq, s, got, want)
			}
		}
	}
}

// FuzzMatcherWarmStart drives one warm-started Matcher through an
// arbitrary byte-encoded mutation sequence and checks every
// intermediate result against brute force. Each triple of bytes is one
// step: (row, col, new value mod 4) on a 4×4 matrix — zero values
// delete edges, so the fuzzer explores adversarial shrink/grow
// interleavings far from the monotone pattern the warm start is tuned
// for.
func FuzzMatcherWarmStart(f *testing.F) {
	f.Add([]byte{0, 0, 1})
	f.Add([]byte{0, 0, 1, 0, 0, 0})                   // add then delete
	f.Add([]byte{0, 1, 2, 1, 0, 2, 0, 0, 1, 1, 1, 1}) // crossing pairs
	f.Add([]byte{3, 3, 3, 2, 2, 1, 1, 1, 2, 0, 0, 3, 3, 3, 0})
	f.Fuzz(func(t *testing.T, steps []byte) {
		const n = 4
		d := matrix.NewSquare(n)
		mt := NewMatcher(n)
		for s := 0; s+2 < len(steps); s += 3 {
			i := int(steps[s]) % n
			j := int(steps[s+1]) % n
			d.Set(i, j, int64(steps[s+2]%4))
			p := match(mt, d, 1)
			got := checkMatching(t, d, 1, p)
			if want := BruteForceMaxMatching(SupportGraph(d)); got != want {
				t.Fatalf("step %d: warm matcher found %d, brute force %d on\n%v",
					s/3, got, want, d)
			}
		}
	})
}

// TestMatcherExternalAdjacency exercises the caller-owned adjacency
// path used by the incremental BvN decomposer: install a CSR view via
// SetAdjacency, shrink it in place with swap-deletes + Unmatch, and
// repair one row at a time with AugmentRow. Every intermediate
// matching must match brute force on the equivalent graph.
func TestMatcherExternalAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seq := 0; seq < 200; seq++ {
		n := 2 + rng.Intn(5)
		// Dense-ish random support; keep a parallel dense matrix as
		// the reference edge set.
		d := matrix.NewSquare(n)
		off := make([]int32, n)
		length := make([]int32, n)
		dat := make([]int32, 0, n*n)
		for i := 0; i < n; i++ {
			off[i] = int32(len(dat))
			for j := 0; j < n; j++ {
				if rng.Intn(3) != 0 {
					d.Set(i, j, 1)
					dat = append(dat, int32(j))
				}
			}
			length[i] = int32(len(dat)) - off[i]
		}
		mt := NewMatcher(n)
		mt.SetAdjacency(off, length, dat)
		got := mt.RepairRematch()
		if want := BruteForceMaxMatching(SupportGraph(d)); got != want {
			t.Fatalf("seq %d cold: got %d want %d", seq, got, want)
		}
		if got != mt.MatchedCount() {
			t.Fatalf("seq %d: RepairRematch %d vs MatchedCount %d", seq, got, mt.MatchedCount())
		}
		dst := make([]int, n)
		checkMatching(t, d, 1, mt.MatchingInto(dst))

		// Now delete random edges one at a time, repairing per row.
		for step := 0; step < 3*n; step++ {
			// Pick a random live edge (row with length > 0).
			rows := make([]int, 0, n)
			for i := 0; i < n; i++ {
				if length[i] > 0 {
					rows = append(rows, i)
				}
			}
			if len(rows) == 0 {
				break
			}
			u := rows[rng.Intn(len(rows))]
			k := off[u] + int32(rng.Intn(int(length[u])))
			v := int(dat[k])
			// Swap-delete the edge from the live view.
			last := off[u] + length[u] - 1
			dat[k] = dat[last]
			length[u]--
			d.Set(u, v, 0)
			mt.Unmatch(u, v)
			// Per the AugmentRow contract: on a non-perfect matching a
			// failed u-rooted search needs the RepairRematch fallback.
			if !mt.AugmentRow(u) {
				mt.RepairRematch()
			}
			got := mt.MatchedCount()
			if want := BruteForceMaxMatching(SupportGraph(d)); got != want {
				t.Fatalf("seq %d step %d: after deleting (%d,%d) got %d want %d",
					seq, step, u, v, got, want)
			}
			checkMatching(t, d, 1, mt.MatchingInto(dst))
		}
	}
}

// TestMatcherRepairRematch checks the bulk external-adjacency repair:
// shrink the view arbitrarily (without telling the matcher which
// edges died) and let RepairRematch rediscover a maximum matching.
func TestMatcherRepairRematch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for seq := 0; seq < 200; seq++ {
		n := 2 + rng.Intn(5)
		d := matrix.NewSquare(n)
		off := make([]int32, n)
		length := make([]int32, n)
		dat := make([]int32, 0, n*n)
		for i := 0; i < n; i++ {
			off[i] = int32(len(dat))
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					d.Set(i, j, 1)
					dat = append(dat, int32(j))
				}
			}
			length[i] = int32(len(dat)) - off[i]
		}
		mt := NewMatcher(n)
		mt.SetAdjacency(off, length, dat)
		mt.RepairRematch()
		// Truncate random rows in place, then bulk-repair.
		for i := 0; i < n; i++ {
			for length[i] > 0 && rng.Intn(3) == 0 {
				v := int(dat[off[i]+length[i]-1])
				length[i]--
				d.Set(i, v, 0)
			}
		}
		got := mt.RepairRematch()
		if want := BruteForceMaxMatching(SupportGraph(d)); got != want {
			t.Fatalf("seq %d: repaired %d want %d", seq, got, want)
		}
		dst := make([]int, n)
		checkMatching(t, d, 1, mt.MatchingInto(dst))
	}
}

// TestMatcherMatchedCountTracksMatchSupport pins the O(1) cardinality
// counter against the returned permutation across warm-started calls
// through the matrix entry point.
func TestMatcherMatchedCountTracksMatchSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 6
	d := matrix.NewSquare(n)
	mt := NewMatcher(n)
	for s := 0; s < 300; s++ {
		mutate(rng, d)
		p := match(mt, d, 1)
		if got, want := mt.MatchedCount(), p.Size(); got != want {
			t.Fatalf("step %d: MatchedCount %d, permutation size %d", s, got, want)
		}
	}
}
