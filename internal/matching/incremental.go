package matching

import (
	"fmt"

	"coflow/internal/matrix"
	"coflow/internal/obs"
)

// Matcher is a reusable, warm-started Hopcroft–Karp engine for the
// slot pipeline's repeated-matching workloads (the BvN extraction loop
// and the per-threshold probes of the bottleneck rule).
//
// Between calls it keeps (a) its scratch buffers — BFS levels, queue,
// CSR adjacency — so steady-state calls allocate only the returned
// permutation, and (b) the previous matching. Each call first repairs
// the previous matching against the new edge set (dropping pairs whose
// edge disappeared) and then augments from there. When the caller's
// demand shrinks monotonically — a BvN subtraction zeroes only matched
// entries, a daemon slot only drains served pairs — most repaired
// matchings are already maximum or one augmenting path away, so the
// amortized cost per call is O(changed entries) plus the adjacency
// scan, instead of a full O(E·√V) cold solve.
//
// A Matcher is NOT safe for concurrent use. Correctness never depends
// on the warm state: any valid partial matching extends to a maximum
// one via augmenting paths, so even an adversarial (grown) edge set
// yields a true maximum matching.
type Matcher struct {
	n              int
	matchL, matchR []int
	dist           []int
	queue          []int
	// Matcher-owned CSR adjacency, rebuilt (not reallocated) by the
	// matrix entry point (MatchSupportAtLeastInto).
	ownOff []int32
	ownDat []int32
	ownLen []int32

	// Active adjacency view the search routines run on: row u's live
	// neighbours are adjDat[adjOff[u] : adjOff[u]+adjLen[u]]. Either
	// the own* buffers above, or a caller-installed view
	// (SetAdjacency) that the caller mutates in place between calls.
	// edgePos indexes the caller view: edgePos[u*n+v] is the adjDat
	// position of edge (u, v), or -1.
	adjOff  []int32
	adjLen  []int32
	adjDat  []int32
	edgePos []int32

	// Kuhn scratch for single-row augmentation (AugmentRow): per
	// right-vertex visit stamps, bumped per call so no O(n) clear runs.
	mark  []int64
	stamp int64

	// free holds exactly the unmatched right vertices, in no order, and
	// freeAt[v] is v's index in it or -1: Unmatch adds, a claim by
	// AugmentRow removes, and every Hopcroft–Karp solve rebuilds it.
	// moved lists the rows the last AugmentRow rematched.
	free   []int32
	freeAt []int32
	moved  []int32

	// matched is the live matching cardinality, maintained by every
	// mutation so perfection checks are O(1).
	matched int

	// obs counts warm-start effectiveness (see Obs). The zero value
	// is the disabled mode (nil-safe no-op counters).
	obs Obs
}

// Obs instruments the warm-start machinery: Calls counts matching
// solves, WarmHits the solves where the repaired previous matching
// was already maximum (zero Hopcroft–Karp phases ran — the pure
// warm-start win), Phases the total HK phases across all solves.
// Every field is a nil-safe obs metric; the zero Obs disables them.
type Obs struct {
	Calls    *obs.Counter
	WarmHits *obs.Counter
	Phases   *obs.Counter
}

// NewObs registers the matcher metrics on r (prefix coflow_matcher_)
// and returns the wired Obs. A nil registry yields the zero Obs.
func NewObs(r *obs.Registry) Obs {
	return Obs{
		Calls:    r.Counter("coflow_matcher_calls_total", "warm-started matching solves"),
		WarmHits: r.Counter("coflow_matcher_warm_start_hits_total", "solves where the repaired previous matching was already maximum"),
		Phases:   r.Counter("coflow_matcher_phases_total", "Hopcroft-Karp phases run across all solves"),
	}
}

// SetObs installs the instrumentation hooks; the zero Obs disables
// them. Not safe to call concurrently with matching.
func (mt *Matcher) SetObs(o Obs) { mt.obs = o }

// WarmStartHitRate returns WarmHits / Calls, or 0 before any call.
func (o *Obs) WarmStartHitRate() float64 {
	calls := o.Calls.Value()
	if calls == 0 {
		return 0
	}
	return float64(o.WarmHits.Value()) / float64(calls)
}

// NewMatcher returns a Matcher for bipartite graphs on n+n vertices
// with an empty warm matching.
func NewMatcher(n int) *Matcher {
	if n <= 0 {
		panic(fmt.Sprintf("matching: non-positive matcher size %d", n))
	}
	mt := &Matcher{
		n:      n,
		matchL: make([]int, n),
		matchR: make([]int, n),
		dist:   make([]int, n),
		queue:  make([]int, 0, n),
		ownOff: make([]int32, n+1),
		ownLen: make([]int32, n),
		mark:   make([]int64, n),
		free:   make([]int32, 0, n),
		freeAt: make([]int32, n),
		moved:  make([]int32, 0, n),
	}
	mt.Reset()
	return mt
}

// Reset forgets the warm matching; the next call runs cold.
//
//coflow:allocfree
func (mt *Matcher) Reset() {
	for i := range mt.matchL {
		mt.matchL[i] = matrix.Unmatched
		mt.matchR[i] = matrix.Unmatched
	}
	mt.matched = 0
	mt.rebuildFree()
}

// rebuildFree re-derives the free-column list from matchR.
//
//coflow:allocfree
func (mt *Matcher) rebuildFree() {
	mt.free = mt.free[:0]
	for v, u := range mt.matchR {
		mt.freeAt[v] = -1
		if u == matrix.Unmatched {
			mt.freeAt[v] = int32(len(mt.free))
			mt.free = append(mt.free, int32(v))
		}
	}
}

// freeColumn puts the just-unmatched column v on the free list.
//
//coflow:allocfree
func (mt *Matcher) freeColumn(v int) {
	mt.freeAt[v] = int32(len(mt.free))
	mt.free = append(mt.free, int32(v))
}

// claimColumn takes free column v off the free list by swap-delete.
//
//coflow:allocfree
func (mt *Matcher) claimColumn(v int) {
	k := mt.freeAt[v]
	last := mt.free[len(mt.free)-1]
	mt.free[k] = last
	mt.freeAt[last] = k
	mt.free = mt.free[:len(mt.free)-1]
	mt.freeAt[v] = -1
}

// MatchSupportAtLeastInto computes a maximum matching on the threshold
// graph {(i,j) : d.At(i,j) >= theta} of a square matrix d,
// warm-starting from the previous call, and writes it into
// caller-owned dst (which must have length n). theta must be positive;
// theta = 1 is the support graph. Perfection is checked
// allocation-free via MatchedCount() == n.
//
//coflow:allocfree
func (mt *Matcher) MatchSupportAtLeastInto(dst []int, d *matrix.Matrix, theta int64) matrix.Permutation {
	mt.matchSupportAtLeast(d, theta)
	copy(dst, mt.matchL)
	return matrix.Permutation{To: dst}
}

// matchSupportAtLeast solves the threshold-graph matching into the
// matcher's own matchL/matchR state.
//
//coflow:allocfree
func (mt *Matcher) matchSupportAtLeast(d *matrix.Matrix, theta int64) {
	if d.Rows() != d.Cols() || d.Rows() != mt.n {
		panic(fmt.Sprintf("matching: matcher size %d, matrix %d×%d", mt.n, d.Rows(), d.Cols()))
	}
	if theta <= 0 {
		panic(fmt.Sprintf("matching: non-positive threshold %d", theta))
	}
	n := mt.n
	// Build CSR adjacency into the reusable buffers.
	mt.ownDat = mt.ownDat[:0]
	for i := 0; i < n; i++ {
		mt.ownOff[i] = int32(len(mt.ownDat))
		for j := 0; j < n; j++ {
			if d.At(i, j) >= theta {
				mt.ownDat = append(mt.ownDat, int32(j))
			}
		}
		mt.ownLen[i] = int32(len(mt.ownDat)) - mt.ownOff[i]
	}
	mt.ownOff[n] = int32(len(mt.ownDat))
	mt.useOwnAdj()
	// Repair the warm matching: drop pairs whose edge disappeared.
	for u := 0; u < n; u++ {
		if v := mt.matchL[u]; v != matrix.Unmatched && d.At(u, v) < theta {
			mt.matchL[u] = matrix.Unmatched
			mt.matchR[v] = matrix.Unmatched
			mt.matched--
		}
	}
	mt.augmentToMax()
}

// useOwnAdj points the active adjacency view at the matcher-owned CSR
// buffers built by the matrix entry points.
//
//coflow:allocfree
func (mt *Matcher) useOwnAdj() {
	mt.adjOff = mt.ownOff
	mt.adjLen = mt.ownLen
	mt.adjDat = mt.ownDat
}

// augmentToMax runs Hopcroft–Karp phases over the active adjacency
// from the current (partial) matching until no augmenting path
// remains.
//
//coflow:allocfree
func (mt *Matcher) augmentToMax() {
	phases := int64(0)
	for mt.bfs() {
		phases++
		for u := 0; u < mt.n; u++ {
			if mt.matchL[u] == matrix.Unmatched && mt.dfs(u) {
				mt.matched++
			}
		}
	}
	mt.rebuildFree()
	mt.obs.Calls.Inc()
	mt.obs.Phases.Add(phases)
	if phases == 0 {
		mt.obs.WarmHits.Inc()
	}
}

// bfs builds the layered graph from free left vertices; it reports
// whether any augmenting path exists. The queue buffer is pre-sized at
// construction (≤ n vertices enter), so append never grows it.
//
//coflow:allocfree
func (mt *Matcher) bfs() bool {
	mt.queue = mt.queue[:0]
	for u := 0; u < mt.n; u++ {
		if mt.matchL[u] == matrix.Unmatched {
			mt.dist[u] = 0
			mt.queue = append(mt.queue, u)
		} else {
			mt.dist[u] = infDist
		}
	}
	found := false
	for qi := 0; qi < len(mt.queue); qi++ {
		u := mt.queue[qi]
		off := mt.adjOff[u]
		for _, v32 := range mt.adjDat[off : off+mt.adjLen[u]] {
			w := mt.matchR[v32]
			if w == matrix.Unmatched {
				found = true
			} else if mt.dist[w] == infDist {
				mt.dist[w] = mt.dist[u] + 1
				mt.queue = append(mt.queue, w)
			}
		}
	}
	return found
}

// dfs walks the layered graph looking for an augmenting path from u.
//
//coflow:allocfree
func (mt *Matcher) dfs(u int) bool {
	off := mt.adjOff[u]
	for _, v32 := range mt.adjDat[off : off+mt.adjLen[u]] {
		v := int(v32)
		w := mt.matchR[v]
		if w == matrix.Unmatched || (mt.dist[w] == mt.dist[u]+1 && mt.dfs(w)) {
			mt.matchL[u] = v
			mt.matchR[v] = u
			return true
		}
	}
	mt.dist[u] = infDist
	return false
}

// SetAdjacency installs a caller-owned CSR adjacency view: row u's
// live neighbours are dat[off[u] : off[u]+length[u]], and pos[u*n+v]
// is the dat position of edge (u, v), or -1 when the edge is absent.
// The caller may mutate the view in place (shrink lengths, swap-delete
// entries, keeping pos in step) between calls; the matcher only reads
// it. off and length must have at least n entries, pos n². The view
// stays active until the next MatchSupportAtLeastInto call rebuilds
// the matcher-owned adjacency.
//
//coflow:allocfree
func (mt *Matcher) SetAdjacency(off, length, dat, pos []int32) {
	mt.adjOff = off
	mt.adjLen = length
	mt.adjDat = dat
	mt.edgePos = pos
}

// Unmatch removes the pair (u, v) from the current matching if
// present; it is a no-op otherwise.
//
//coflow:allocfree
func (mt *Matcher) Unmatch(u, v int) {
	if u >= 0 && u < mt.n && mt.matchL[u] == v {
		mt.matchL[u] = matrix.Unmatched
		mt.matchR[v] = matrix.Unmatched
		mt.matched--
		mt.freeColumn(v)
	}
}

// MatchedCount returns the cardinality of the current matching in
// O(1). The matching is perfect iff MatchedCount() == n.
//
//coflow:allocfree
func (mt *Matcher) MatchedCount() int { return mt.matched }

// Mate returns the right vertex matched to left vertex u, or
// matrix.Unmatched.
//
//coflow:allocfree
func (mt *Matcher) Mate(u int) int { return mt.matchL[u] }

// Moved returns the left vertices whose mate the last AugmentRow call
// changed: the augmenting path's rows, u included. The slice is the
// matcher's scratch, valid until the next AugmentRow.
//
//coflow:allocfree
func (mt *Matcher) Moved() []int32 { return mt.moved }

// AugmentRow tries to rematch the single free left vertex u with one
// Kuhn augmenting-path DFS over the active adjacency, reporting
// success. Unlike a full Hopcroft–Karp phase it costs O(reachable
// edges), which is the right tool when one matched edge just
// disappeared and the rest of the matching is intact. Calling it on an
// already-matched row reports true without searching. The active view
// must be a SetAdjacency one: the search reads its edge positions.
//
// Maximality contract: if the matching was PERFECT before deleting
// matched edge (u, v) — the BvN extraction invariant — then u and v
// are the only free vertices, every augmenting path runs u→…→v, and a
// false return proves no perfect matching exists. If other vertices
// were already free, a path ending at the freed v from a different
// free row can escape the u-rooted search; such callers must fall
// back to RepairRematch on failure.
//
//coflow:allocfree
func (mt *Matcher) AugmentRow(u int) bool {
	mt.moved = mt.moved[:0]
	if mt.matchL[u] != matrix.Unmatched {
		return true
	}
	mt.stamp++
	if mt.kuhn(u) {
		mt.matched++
		return true
	}
	return false
}

// kuhn is the single-source augmenting DFS behind AugmentRow. The
// mark/stamp pair gives O(1) per-call visited-set reset. At every
// depth a lookahead claims a free neighbour before any recursion runs,
// so the common repair (a short path to a just-freed column) never
// wanders depth-first through the matched bulk of the graph. The
// lookahead walks the free list, not the row: a free column is never
// marked (marking one claims it and ends the search), so the free
// neighbour at the smallest edge position is exactly the one a scan of
// the row would meet first.
//
//coflow:allocfree
func (mt *Matcher) kuhn(u int) bool {
	off := mt.adjOff[u]
	adj := mt.adjDat[off : off+mt.adjLen[u]]
	if v := mt.firstFree(u); v != matrix.Unmatched {
		mt.claimColumn(v)
		mt.rematch(u, v)
		return true
	}
	for _, v32 := range adj {
		v := int(v32)
		if mt.mark[v] == mt.stamp {
			continue
		}
		mt.mark[v] = mt.stamp
		if mt.kuhn(mt.matchR[v]) {
			mt.rematch(u, v)
			return true
		}
	}
	return false
}

// firstFree returns u's free neighbour at the smallest edge position,
// or matrix.Unmatched when u has none.
//
//coflow:allocfree
func (mt *Matcher) firstFree(u int) int {
	row := mt.edgePos[u*mt.n : (u+1)*mt.n]
	best, bestPos := matrix.Unmatched, int32(-1)
	for _, v := range mt.free {
		if p := row[v]; p >= 0 && (bestPos < 0 || p < bestPos) {
			best, bestPos = int(v), p
		}
	}
	return best
}

// rematch pairs u with v on an augmenting path and records u as moved.
//
//coflow:allocfree
func (mt *Matcher) rematch(u, v int) {
	mt.matchL[u] = v
	mt.matchR[v] = u
	mt.moved = append(mt.moved, int32(u))
}

// RepairRematch revalidates the warm matching against the installed
// SetAdjacency view (dropping matched pairs whose edge position is -1),
// augments to maximum, and reports the resulting cardinality. This is
// the external-adjacency analogue of the repair step inside
// MatchSupportAtLeastInto: the caller mutates its view, then asks for
// a repaired maximum matching without any CSR rebuild.
//
//coflow:allocfree
func (mt *Matcher) RepairRematch() int {
	for u := 0; u < mt.n; u++ {
		if v := mt.matchL[u]; v != matrix.Unmatched && mt.edgePos[u*mt.n+v] < 0 {
			mt.matchL[u] = matrix.Unmatched
			mt.matchR[v] = matrix.Unmatched
			mt.matched--
		}
	}
	mt.augmentToMax()
	return mt.matched
}

// MatchingInto copies the current left-to-right assignment into dst
// (which must have length n) and returns it wrapped as a Permutation.
//
//coflow:allocfree
func (mt *Matcher) MatchingInto(dst []int) matrix.Permutation {
	copy(dst, mt.matchL)
	return matrix.Permutation{To: dst}
}
