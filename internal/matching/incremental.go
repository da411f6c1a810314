package matching

import (
	"fmt"

	"coflow/internal/matrix"
	"coflow/internal/obs"
)

// Matcher is the reusable matching engine of the BvN extraction loop.
// It runs on a caller-owned CSR adjacency view (SetAdjacency) that the
// caller shrinks in place between calls. RepairRematch solves the view
// to a maximum matching with Hopcroft–Karp; after that, each deleted
// matched edge is Unmatched and its row repaired by AugmentRow with one
// augmenting-path search, which costs O(reachable edges) instead of a
// full O(E·√V) solve.
//
// Between calls it keeps its scratch buffers — BFS levels, queue,
// visit stamps, free-column list — so no call allocates, and the
// current matching, which Reset empties. A Matcher is NOT safe for
// concurrent use.
type Matcher struct {
	n              int
	matchL, matchR []int
	dist           []int
	queue          []int

	// Caller-installed adjacency view (SetAdjacency) the search
	// routines run on: row u's live neighbours are
	// adjDat[adjOff[u] : adjOff[u]+adjLen[u]], and edgePos[u*n+v] is
	// the adjDat position of edge (u, v), or -1.
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

	// obs counts solves and phases (see Obs). The zero value is the
	// disabled mode (nil-safe no-op counters).
	obs Obs
}

// Obs instruments the Hopcroft–Karp solves: Calls counts them, Phases
// the total HK phases across all of them. Every field is a nil-safe obs
// metric; the zero Obs disables them.
type Obs struct {
	Calls  *obs.Counter
	Phases *obs.Counter
}

// NewObs registers the matcher metrics on r (prefix coflow_matcher_)
// and returns the wired Obs. A nil registry yields the zero Obs.
func NewObs(r *obs.Registry) Obs {
	return Obs{
		Calls:  r.Counter("coflow_matcher_calls_total", "Hopcroft-Karp matching solves"),
		Phases: r.Counter("coflow_matcher_phases_total", "Hopcroft-Karp phases run across all solves"),
	}
}

// SetObs installs the instrumentation hooks; the zero Obs disables
// them. Not safe to call concurrently with matching.
func (mt *Matcher) SetObs(o Obs) { mt.obs = o }

// WarmStartHitRate reads 0: every decomposition's solve starts from
// the empty matching, so no solve is warm. Only the benchmark harness
// reads it (benchmark/batch.go:386, benchmark/replay.go:507), which is
// why it stays, as online's Obs.WarmStartHitRate does.
func (o *Obs) WarmStartHitRate() float64 { return 0 }

// NewMatcher returns a Matcher for bipartite graphs on n+n vertices
// with an empty matching.
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
		mark:   make([]int64, n),
		free:   make([]int32, 0, n),
		freeAt: make([]int32, n),
		moved:  make([]int32, 0, n),
	}
	mt.Reset()
	return mt
}

// Reset empties the matching; the next RepairRematch solves cold.
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

// augmentToMax runs Hopcroft–Karp phases over the adjacency view
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
// it. off and length must have at least n entries, pos n².
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
// Kuhn augmenting-path DFS over the adjacency view, reporting
// success. Unlike a full Hopcroft–Karp phase it costs O(reachable
// edges), which is the right tool when one matched edge just
// disappeared and the rest of the matching is intact. Calling it on an
// already-matched row reports true without searching.
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

// RepairRematch revalidates the current matching against the installed
// view (dropping matched pairs whose edge position is -1), augments it
// to maximum with Hopcroft–Karp, and reports the resulting
// cardinality: the caller mutates its view, then asks for a repaired
// maximum matching without any CSR rebuild. After Reset it is a cold
// solve.
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
