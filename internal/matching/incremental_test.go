package matching

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"coflow/internal/matrix"
)

// checkMatching verifies p is a valid matching on the support of d and
// returns its cardinality.
func checkMatching(t testing.TB, d *matrix.Matrix, p matrix.Permutation) int {
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
		if d.At(u, v) <= 0 {
			t.Fatalf("match %d→%d is not an edge (d=%d)", u, v, d.At(u, v))
		}
		size++
	}
	return size
}

// mutate applies one random shrink or grow step to d: shrinking zeroes
// or decrements a positive entry (the BvN drain direction), growing
// raises a random entry. Roughly 2/3 of the steps shrink so sequences
// drift toward sparse supports.
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

// match installs a fresh view of d's support into mt, repairs the
// matching mt holds against it with RepairRematch, and returns the
// result in a fresh buffer after checking the count RepairRematch
// reports against it.
func match(t testing.TB, mt *Matcher, d *matrix.Matrix) matrix.Permutation {
	t.Helper()
	newView(d).install(mt)
	got := mt.RepairRematch()
	p := mt.MatchingInto(make([]int, d.Rows()))
	if size := p.Size(); got != size || got != mt.matched {
		t.Fatalf("RepairRematch reports %d, matched %d, permutation size %d", got, mt.matched, size)
	}
	return p
}

// TestMatcherMatchesBruteForce is the property test of the production
// entry: across 1000 random shrink/grow demand sequences, one Matcher
// repairing its matching against each new view must report the same
// maximum-matching cardinality as the exponential brute-force
// reference on every intermediate graph, and every matching it returns
// must be valid.
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
			got := checkMatching(t, d, match(t, mt, d))
			want := BruteForceMaxMatching(SupportGraph(d))
			if got != want {
				t.Fatalf("seq %d step %d: matcher found %d, brute force %d on\n%v",
					seq, s, got, want, d)
			}
		}
	}
}

// TestMatcherThresholdMatchesBruteForce raises a threshold θ over a
// fixed matrix and repairs one Matcher against the view of each
// threshold graph {(i,j) : d(i,j) ≥ θ}: edges only disappear as θ
// rises, so every RepairRematch starts from a matching that lost some
// of its pairs, and must still find a maximum one.
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
			g := matrix.NewSquare(n) // the threshold graph as a 0/1 matrix
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d.At(i, j) >= theta {
						g.Set(i, j, 1)
					}
				}
			}
			got := checkMatching(t, g, match(t, mt, g))
			if want := BruteForceMaxMatching(SupportGraph(g)); got != want {
				t.Fatalf("seq %d θ=%d: matcher found %d, brute force %d on\n%v",
					seq, theta, got, want, d)
			}
		}
	}
}

// TestMatcherAgreesWithColdHopcroftKarp cross-checks the repaired
// matchings against the package's cold solver on larger graphs where
// brute force is out of reach (cardinality only — matchings themselves
// may differ).
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
			got := checkMatching(t, d, match(t, mt, d))
			if want := HopcroftKarp(SupportGraph(d)).Size(); got != want {
				t.Fatalf("seq %d step %d: repaired %d, cold %d", seq, s, got, want)
			}
		}
	}
}

// FuzzMatcherWarmStart drives one Matcher through an arbitrary
// byte-encoded mutation sequence, repairing the matching it holds
// against a fresh view after every step, and checks each result
// against brute force. Each triple of bytes is one step: (row, col,
// new value mod 4) on a 4×4 matrix — zero values delete edges, so the
// fuzzer explores shrink/grow interleavings far from the monotone
// drain of a decomposition.
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
			got := checkMatching(t, d, match(t, mt, d))
			if want := BruteForceMaxMatching(SupportGraph(d)); got != want {
				t.Fatalf("step %d: matcher found %d, brute force %d on\n%v",
					s/3, got, want, d)
			}
		}
	})
}

// view is a caller-owned CSR adjacency with its edge-position index,
// the shape the incremental BvN decomposer installs via SetAdjacency:
// row u's live columns are dat[off[u] : off[u]+length[u]] and
// pos[u*n+v] is the dat position of edge (u, v), or -1.
type view struct {
	n                     int
	off, length, dat, pos []int32
}

// newView builds the view of d's support.
func newView(d *matrix.Matrix) *view {
	n := d.Rows()
	w := &view{n: n, off: make([]int32, n), length: make([]int32, n),
		dat: make([]int32, 0, n*n), pos: make([]int32, n*n)}
	for i := 0; i < n; i++ {
		w.off[i] = int32(len(w.dat))
		for j := 0; j < n; j++ {
			w.pos[i*n+j] = -1
			if d.At(i, j) > 0 {
				w.pos[i*n+j] = int32(len(w.dat))
				w.dat = append(w.dat, int32(j))
			}
		}
		w.length[i] = int32(len(w.dat)) - w.off[i]
	}
	return w
}

// install points mt at the view.
func (w *view) install(mt *Matcher) { mt.SetAdjacency(w.off, w.length, w.dat, w.pos) }

// deleteAt swap-deletes row u's k-th live edge, keeping pos in step,
// and returns its column.
func (w *view) deleteAt(u, k int) int {
	p := w.off[u] + int32(k)
	v := int(w.dat[p])
	last := w.off[u] + w.length[u] - 1
	moved := w.dat[last]
	w.dat[p] = moved
	w.pos[u*w.n+int(moved)] = p
	w.length[u]--
	w.pos[u*w.n+v] = -1
	return v
}

// augmentRowRef is AugmentRow with the adjacency-scan lookahead: the
// reference the free-column lookahead is pinned to.
func (mt *Matcher) augmentRowRef(u int) bool {
	if mt.matchL[u] != matrix.Unmatched {
		return true
	}
	mt.stamp++
	if mt.kuhnRef(u) {
		mt.matched++
		return true
	}
	return false
}

// kuhnRef is kuhn whose lookahead scans u's whole adjacency row for
// the first free, unmarked column.
func (mt *Matcher) kuhnRef(u int) bool {
	off := mt.adjOff[u]
	adj := mt.adjDat[off : off+mt.adjLen[u]]
	for _, v32 := range adj {
		v := int(v32)
		if mt.matchR[v] == matrix.Unmatched && mt.mark[v] != mt.stamp {
			mt.mark[v] = mt.stamp
			mt.claimColumn(v)
			mt.matchL[u] = v
			mt.matchR[v] = u
			return true
		}
	}
	for _, v32 := range adj {
		v := int(v32)
		if mt.mark[v] == mt.stamp {
			continue
		}
		mt.mark[v] = mt.stamp
		if mt.kuhnRef(mt.matchR[v]) {
			mt.matchL[u] = v
			mt.matchR[v] = u
			return true
		}
	}
	return false
}

// refPair runs the production Matcher and the reference side by side
// on one shared view, through the BvN extraction's delete-and-repair
// sequence.
type refPair struct {
	d         *matrix.Matrix // the view's support, as a 0/1 matrix
	w         *view
	prod, ref *Matcher
}

// newRefPair installs d's support into both matchers and solves cold.
func newRefPair(t testing.TB, d *matrix.Matrix) *refPair {
	t.Helper()
	p := &refPair{d: d, w: newView(d), prod: NewMatcher(d.Rows()), ref: NewMatcher(d.Rows())}
	p.w.install(p.prod)
	p.w.install(p.ref)
	got := p.prod.RepairRematch()
	p.ref.RepairRematch()
	if got != p.prod.matched {
		t.Fatalf("RepairRematch %d vs matched %d", got, p.prod.matched)
	}
	p.agree(t, "cold")
	return p
}

// deleteAndRepair deletes row u's k-th live edge from the view, unmatches
// it in both matchers and repairs row u in each, falling back to
// RepairRematch where the AugmentRow contract requires it. It checks
// that Moved names exactly the rows whose mate changed.
func (p *refPair) deleteAndRepair(t testing.TB, u, k int) {
	t.Helper()
	v := p.w.deleteAt(u, k)
	p.d.Set(u, v, 0)
	p.prod.Unmatch(u, v)
	p.ref.Unmatch(u, v)
	before := slices.Clone(p.prod.matchL)
	ok := p.prod.AugmentRow(u)
	if okRef := p.ref.augmentRowRef(u); ok != okRef {
		t.Fatalf("after deleting (%d,%d): AugmentRow %v, reference %v", u, v, ok, okRef)
	}
	var changed []int32
	for i, j := range p.prod.matchL {
		if j != before[i] {
			changed = append(changed, int32(i))
		}
	}
	moved := slices.Clone(p.prod.Moved())
	slices.Sort(moved)
	if !slices.Equal(moved, changed) {
		t.Fatalf("after deleting (%d,%d): Moved %v, rows whose mate changed %v", u, v, moved, changed)
	}
	if !ok {
		p.prod.RepairRematch()
		p.ref.RepairRematch()
	}
	p.agree(t, fmt.Sprintf("after deleting (%d,%d)", u, v))
}

// agree requires identical matchings, a valid one, and a free list
// holding exactly the production matcher's unmatched columns.
func (p *refPair) agree(t testing.TB, when string) {
	t.Helper()
	if !slices.Equal(p.prod.matchL, p.ref.matchL) {
		t.Fatalf("%s: matching %v, reference %v", when, p.prod.matchL, p.ref.matchL)
	}
	checkMatching(t, p.d, p.prod.MatchingInto(make([]int, p.d.Rows())))
	mt := p.prod
	if len(mt.free) != mt.n-mt.matched {
		t.Fatalf("%s: %d free columns listed, %d unmatched", when, len(mt.free), mt.n-mt.matched)
	}
	for v, u := range mt.matchR {
		k := mt.freeAt[v]
		if listed := k >= 0 && int(mt.free[k]) == v; listed != (u == matrix.Unmatched) {
			t.Fatalf("%s: column %d matched to %d but free-listed %v", when, v, u, listed)
		}
	}
}

// TestMatcherExternalAdjacency exercises the caller-owned adjacency
// path used by the incremental BvN decomposer: install a view via
// SetAdjacency, shrink it in place with swap-deletes + Unmatch, and
// repair one row at a time with AugmentRow. Every intermediate
// matching must equal the reference's and match brute force on the
// equivalent graph.
func TestMatcherExternalAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for seq := 0; seq < 200; seq++ {
		n := 2 + rng.Intn(5)
		d := matrix.NewSquare(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Intn(3) != 0 {
					d.Set(i, j, 1)
				}
			}
		}
		p := newRefPair(t, d)
		if got, want := p.prod.matched, BruteForceMaxMatching(SupportGraph(d)); got != want {
			t.Fatalf("seq %d cold: got %d want %d", seq, got, want)
		}
		// Now delete random edges one at a time, repairing per row.
		for step := 0; step < 3*n; step++ {
			rows := make([]int, 0, n)
			for i := 0; i < n; i++ {
				if p.w.length[i] > 0 {
					rows = append(rows, i)
				}
			}
			if len(rows) == 0 {
				break
			}
			u := rows[rng.Intn(len(rows))]
			p.deleteAndRepair(t, u, rng.Intn(int(p.w.length[u])))
			if got, want := p.prod.matched, BruteForceMaxMatching(SupportGraph(d)); got != want {
				t.Fatalf("seq %d step %d: got %d want %d", seq, step, got, want)
			}
		}
	}
}

// FuzzAugmentRowVsReference drives the production Matcher and the
// adjacency-scan reference through an arbitrary delete-and-repair
// script on one shared view and requires identical matchings after
// every step. The first byte sizes the graph (2–8 vertices a side),
// the next n² bits are its edges, and each later byte deletes one live
// edge: row byte%n, position byte/n modulo the row's length.
func FuzzAugmentRowVsReference(f *testing.F) {
	f.Add([]byte{1, 0xff, 0x01, 0x05, 0x12})
	f.Add([]byte{2, 0xff, 0xff, 0xff, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05})
	f.Add([]byte{6, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76, 0x87})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0])%7
		data = data[1:]
		d := matrix.NewSquare(n)
		for c := 0; c < n*n && c/8 < len(data); c++ {
			if data[c/8]>>(c%8)&1 == 1 {
				d.Set(c/n, c%n, 1)
			}
		}
		p := newRefPair(t, d)
		for _, b := range data[min(len(data), (n*n+7)/8):] {
			u := int(b) % n
			if ln := int(p.w.length[u]); ln > 0 {
				p.deleteAndRepair(t, u, int(b)/n%ln)
			}
		}
	})
}

// TestMatcherRepairRematch checks the bulk external-adjacency repair:
// shrink the view arbitrarily (without unmatching the edges that died)
// and let RepairRematch rediscover a maximum matching.
func TestMatcherRepairRematch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for seq := 0; seq < 200; seq++ {
		n := 2 + rng.Intn(5)
		d := matrix.NewSquare(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rng.Intn(2) == 0 {
					d.Set(i, j, 1)
				}
			}
		}
		w := newView(d)
		mt := NewMatcher(n)
		w.install(mt)
		mt.RepairRematch()
		// Truncate random rows in place, then bulk-repair.
		for i := 0; i < n; i++ {
			for w.length[i] > 0 && rng.Intn(3) == 0 {
				d.Set(i, w.deleteAt(i, int(w.length[i])-1), 0)
			}
		}
		got := mt.RepairRematch()
		if want := BruteForceMaxMatching(SupportGraph(d)); got != want {
			t.Fatalf("seq %d: repaired %d want %d", seq, got, want)
		}
		dst := make([]int, n)
		checkMatching(t, d, mt.MatchingInto(dst))
	}
}

// TestMatcherMatchedCountTracksMatchSupport pins the O(1) cardinality
// counter RepairRematch reports against the returned permutation (the
// check inside match) across 300 shrink/grow steps of one matrix, and
// the counter after each step's Unmatch of one matched pair.
func TestMatcherMatchedCountTracksMatchSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 6
	d := matrix.NewSquare(n)
	mt := NewMatcher(n)
	for s := 0; s < 300; s++ {
		mutate(rng, d)
		p := match(t, mt, d)
		if u := rng.Intn(n); p.To[u] != matrix.Unmatched {
			mt.Unmatch(u, p.To[u])
			if got, want := mt.matched, p.Size()-1; got != want {
				t.Fatalf("step %d: %d matched after Unmatch, want %d", s, got, want)
			}
		}
	}
}
