package bvn

import (
	"fmt"
	"slices"

	"coflow/internal/matching"
	"coflow/internal/matrix"
)

// Decomposer is the reusable, zero-allocation engine behind Algorithm
// 1 for a fixed port count m. It owns every piece of scratch a
// decomposition needs — the augmentation sum buffers and deficit
// heaps, the working copy of D̃, a warm-started matching.Matcher, an
// incrementally maintained support adjacency, and a recycled pool of
// permutation buffers — so once the pool is warm, Decompose and
// Update perform no allocations (enforced by TestDecomposeDoesNotAllocate
// and the allocfree analyzer).
//
// Two modes:
//
//   - Decompose/DecomposeWith run Algorithm 1 cold on a fresh demand
//     matrix. The matcher starts from the matching the previous run
//     left, which after a StrategyFirst run is none.
//   - Update(served) repairs the PREVIOUS result after demand shrank
//     by served (the slot pipeline's only transition): it sheds the
//     load delta from existing term counts under the coverage
//     invariant instead of re-extracting matchings, falling back to a
//     cold run when the greedy repair cannot shed the full delta.
//
// The returned *Decomposition aliases the Decomposer's recycled
// storage: it is valid until the next Decompose/DecomposeWith/Update
// call on the same Decomposer. Callers that need it afterwards take a
// Clone first. A Decomposer is NOT safe for concurrent use.
type Decomposer struct {
	m       int
	matcher *matching.Matcher
	augSc   augScratch

	// demand is the current (original, unaugmented) demand matrix the
	// last result decomposes; cover is the running Σ q_u·Π_u (equal to
	// D̃ right after a cold run); work is the cold run's draining copy.
	demand *matrix.Matrix
	cover  *matrix.Matrix
	work   *matrix.Matrix

	// Support adjacency over work during a StrategyFirst cold run,
	// installed into the matcher via SetAdjacency and maintained
	// incrementally with O(1) swap-deletes: row i's live columns are
	// adjDat[i*m : i*m+adjLen[i]], and edgePos[i*m+j] is the absolute
	// adjDat position of edge (i,j), or -1. nnz counts live support
	// cells, making the extraction loop's termination test O(1).
	adjOff  []int32
	adjLen  []int32
	adjDat  []int32
	edgePos []int32
	nnz     int

	// Lazy subtraction state of a StrategyFirst run. With G the Σq
	// extracted so far, row i's matched cell (i, lvlCol[i]) holds
	// lvl[i] − G; work itself is stale there until the row drains or
	// rematches, when the cell is written back. drained lists the rows
	// whose matched cell the current term empties.
	lvl     []int64
	lvlCol  []int32
	drained []int32

	// Recycled term storage: terms is the reused Terms backing array
	// and permBufs the pool of m-length permutation buffers, where
	// term k of a cold run writes into permBufs[k]. Update's
	// compaction swaps pool entries alongside terms so the pool stays
	// a permutation of every buffer ever allocated.
	terms    []Term
	permBufs [][]int

	// Thick-strategy scratch: distinct entry values and the
	// current/best probe matchings of the bottleneck binary search.
	vals      []int64
	thickCur  []int
	thickBest []int

	dec          Decomposition
	primed       bool
	lastStrategy Strategy

	obs Obs
}

// NewDecomposer returns a Decomposer for m×m demand matrices. It
// performs all sizing allocations up front (O(m²) memory).
func NewDecomposer(m int) *Decomposer {
	if m <= 0 {
		panic(fmt.Sprintf("bvn: non-positive decomposer size %d", m))
	}
	dc := &Decomposer{
		m:         m,
		matcher:   matching.NewMatcher(m),
		demand:    matrix.NewSquare(m),
		cover:     matrix.NewSquare(m),
		work:      matrix.NewSquare(m),
		adjOff:    make([]int32, m),
		adjLen:    make([]int32, m),
		adjDat:    make([]int32, m*m),
		edgePos:   make([]int32, m*m),
		lvl:       make([]int64, m),
		lvlCol:    make([]int32, m),
		drained:   make([]int32, 0, m),
		vals:      make([]int64, 0, m*m),
		thickCur:  make([]int, m),
		thickBest: make([]int, m),
	}
	for i := 0; i < m; i++ {
		dc.adjOff[i] = int32(i * m)
	}
	dc.augSc.grow(m)
	return dc
}

// SetObs installs per-instance instrumentation (term-reuse hit rate,
// update fallbacks, matcher warm-start counters); the zero Obs
// disables it. Not safe to call concurrently with decompositions.
func (dc *Decomposer) SetObs(o Obs) {
	dc.obs = o
	dc.matcher.SetObs(o.Matcher)
}

// Reset forgets the previous result and the matcher's warm matching
// and keeps all storage: the next Decompose computes what a fresh
// Decomposer would. A holder that outlives its caller (switchsim's
// pooled executor) calls it between callers, so that a decomposition
// never depends on what was decomposed for someone else.
func (dc *Decomposer) Reset() {
	dc.matcher.Reset()
	dc.primed = false
}

// Decompose runs Algorithm 1 cold on d with StrategyFirst. See the
// type comment for the aliasing contract of the result.
//
//coflow:pooled
func (dc *Decomposer) Decompose(d *matrix.Matrix) (*Decomposition, error) {
	return dc.DecomposeWith(d, StrategyFirst)
}

// DecomposeWith runs Algorithm 1 cold on d with the given extraction
// strategy, reusing all scratch from previous calls.
//
//coflow:pooled
func (dc *Decomposer) DecomposeWith(d *matrix.Matrix, strategy Strategy) (*Decomposition, error) {
	if d.Rows() != d.Cols() || d.Rows() != dc.m {
		panic(fmt.Sprintf("bvn: decomposer size %d, matrix %d×%d", dc.m, d.Rows(), d.Cols()))
	}
	dc.demand.CopyFrom(d)
	dc.lastStrategy = strategy
	return dc.cold(strategy)
}

// cold runs Algorithm 1 over dc.demand into the recycled result.
//
//coflow:allocfree
//coflow:pooled
func (dc *Decomposer) cold(strategy Strategy) (*Decomposition, error) {
	decSpan := dc.obs.DecomposeSeconds.Start()
	defer decSpan.End()
	augSpan := dc.obs.AugmentSeconds.Start()
	dc.work.CopyFrom(dc.demand)
	rho := dc.augSc.augmentInto(dc.work)
	augSpan.End()
	dc.cover.CopyFrom(dc.work)
	dc.terms = dc.terms[:0]
	dc.dec = Decomposition{Load: rho, m: dc.m}
	dc.primed = false
	if rho > 0 {
		var err error
		exSpan := dc.obs.ExtractSeconds.Start()
		if strategy == StrategyFirst {
			err = dc.extractFirstAll()
		} else {
			err = dc.extractThickAll()
		}
		exSpan.End()
		if err != nil {
			return nil, err
		}
	}
	dc.dec.Terms = dc.terms
	dc.primed = true
	dc.obs.Decomposes.Inc()
	dc.obs.Terms.Add(int64(len(dc.terms)))
	return &dc.dec, nil
}

// permBuf returns the pooled m-length buffer for term k, growing the
// pool only while it is colder than the current term count.
//
//coflow:allocfree
func (dc *Decomposer) permBuf(k int) []int {
	if k < len(dc.permBufs) {
		dc.obs.TermReuses.Inc()
		return dc.permBufs[k]
	}
	dc.obs.TermAllocs.Inc()
	buf := make([]int, dc.m)
	dc.permBufs = append(dc.permBufs, buf)
	return buf
}

// buildSupport (re)derives the incremental adjacency and nnz from the
// current work matrix.
//
//coflow:allocfree
func (dc *Decomposer) buildSupport() {
	m := dc.m
	dc.nnz = 0
	for i := 0; i < m; i++ {
		base := i * m
		ln := int32(0)
		for j := 0; j < m; j++ {
			if dc.work.At(i, j) > 0 {
				dc.adjDat[base+int(ln)] = int32(j)
				dc.edgePos[base+j] = int32(base) + ln
				ln++
			} else {
				dc.edgePos[base+j] = -1
			}
		}
		dc.adjLen[i] = ln
		dc.nnz += int(ln)
	}
}

// deleteEdge removes support cell (i, j) from the adjacency in O(1)
// by swap-delete with the row's last live entry.
//
//coflow:allocfree
func (dc *Decomposer) deleteEdge(i, j int) {
	base := int32(i) * int32(dc.m)
	p := dc.edgePos[base+int32(j)]
	last := base + dc.adjLen[i] - 1
	moved := dc.adjDat[last]
	dc.adjDat[p] = moved
	dc.edgePos[base+moved] = p
	dc.adjLen[i]--
	dc.edgePos[base+int32(j)] = -1
	dc.nnz--
}

// extractFirstAll is Step 2 with StrategyFirst on the incremental
// path: one maximum matching up front, then per term a scan of the
// drain levels for q and the rows it drains, O(1) support deletes for
// those rows, and single-row Kuhn repairs that also reload the drain
// levels of every row they rematch. Subtraction is lazy — a term
// touches work only at the cells it drains or rematches — so beyond
// its repair searches a term costs a tight scan of the m levels, the
// copy of its permutation and O(1) per row it drains or rematches.
//
//coflow:allocfree
func (dc *Decomposer) extractFirstAll() error {
	m := dc.m
	dc.buildSupport()
	dc.matcher.SetAdjacency(dc.adjOff, dc.adjLen, dc.adjDat, dc.edgePos)
	// Whatever matching the matcher still holds is repaired against the
	// fresh support. After a StrategyFirst run that is none: its last
	// term drains every cell and unmatches every row, so this is a cold
	// Hopcroft–Karp solve unless the previous run was StrategyThick.
	if dc.matcher.RepairRematch() != m {
		return fmt.Errorf("bvn: support of %d×%d balanced matrix admits no perfect matching", m, m)
	}
	var g int64 // Σq extracted so far
	for i := 0; i < m; i++ {
		j := dc.matcher.Mate(i)
		dc.lvlCol[i] = int32(j)
		dc.lvl[i] = dc.work.At(i, j)
	}
	maxTerms := m*m + 1
	for dc.nnz > 0 {
		if len(dc.terms) >= maxTerms {
			return fmt.Errorf("bvn: more than m²=%d terms extracted; invariant violated", m*m)
		}
		perm := dc.matcher.MatchingInto(dc.permBuf(len(dc.terms)))
		// q = min entry along the matching: subtracting q·Π zeroes at
		// least one support entry, bounding the number of terms by m².
		// The rows at the minimum level are the ones it drains, found
		// in ascending order as the repair below requires.
		low := dc.lvl[0]
		for _, l := range dc.lvl {
			low = min(low, l)
		}
		dc.drained = dc.drained[:0]
		for i, l := range dc.lvl {
			if l == low {
				dc.drained = append(dc.drained, int32(i))
			}
		}
		q := low - g
		if q <= 0 {
			return fmt.Errorf("bvn: non-positive multiplicity %d; invariant violated", q)
		}
		g = low
		for _, i := range dc.drained {
			j := int(dc.lvlCol[i])
			dc.work.Set(int(i), j, 0)
			dc.lvlCol[i] = -1
			dc.deleteEdge(int(i), j)
			dc.matcher.Unmatch(int(i), j)
		}
		dc.terms = append(dc.terms, Term{Count: q, Perm: perm})
		if dc.nnz > 0 {
			// Every drained cell was its row's matched edge, so repair
			// is one Kuhn augmentation per drained row. With only the
			// drained rows and columns unmatched, a failed u-rooted
			// search proves no perfect matching exists — see the
			// AugmentRow contract.
			for _, i := range dc.drained {
				if !dc.matcher.AugmentRow(int(i)) {
					return fmt.Errorf("bvn: support lost its perfect matching after term %d; invariant violated", len(dc.terms)-1)
				}
				dc.reloadMoved(g)
			}
		}
	}
	return nil
}

// reloadMoved moves the drain level of every row the last AugmentRow
// rematched: the old cell gets its lazily subtracted value written
// back (a drained row has none left), the level restarts from the new
// cell. g is the Σq extracted so far.
//
//coflow:allocfree
func (dc *Decomposer) reloadMoved(g int64) {
	for _, i := range dc.matcher.Moved() {
		if j := dc.lvlCol[i]; j >= 0 {
			dc.work.Set(int(i), int(j), dc.lvl[i]-g)
		}
		j := dc.matcher.Mate(int(i))
		dc.lvlCol[i] = int32(j)
		dc.lvl[i] = dc.work.At(int(i), j) + g
	}
}

// extractThickAll is Step 2 with StrategyThick: every term extracts a
// bottleneck (maximin-entry) matching via binary search over the
// distinct entry values, all probes sharing the warm matcher and the
// Decomposer's scratch.
//
//coflow:allocfree
func (dc *Decomposer) extractThickAll() error {
	m := dc.m
	dc.nnz = 0
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if dc.work.At(i, j) > 0 {
				dc.nnz++
			}
		}
	}
	maxTerms := m*m + 1
	for dc.nnz > 0 {
		if len(dc.terms) >= maxTerms {
			return fmt.Errorf("bvn: more than m²=%d terms extracted; invariant violated", m*m)
		}
		if !dc.bottleneck() {
			return fmt.Errorf("bvn: support of %d×%d balanced matrix admits no perfect matching", m, m)
		}
		buf := dc.permBuf(len(dc.terms))
		copy(buf, dc.thickBest)
		perm := matrix.Permutation{To: buf}
		var q int64 = -1
		for i, j := range perm.To {
			if v := dc.work.At(i, j); q < 0 || v < q {
				q = v
			}
		}
		if q <= 0 {
			return fmt.Errorf("bvn: non-positive multiplicity %d; invariant violated", q)
		}
		for i, j := range perm.To {
			dc.work.Add(i, j, -q)
			if dc.work.At(i, j) == 0 {
				dc.nnz--
			}
		}
		dc.terms = append(dc.terms, Term{Count: q, Perm: perm})
	}
	return nil
}

// bottleneck finds a perfect matching of work maximizing its minimum
// entry, writing it into thickBest and reporting success. It binary
// searches the sorted distinct positive entries, probing each
// threshold graph on the shared warm matcher.
//
//coflow:allocfree
func (dc *Decomposer) bottleneck() bool {
	m := dc.m
	dc.vals = dc.vals[:0]
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if v := dc.work.At(i, j); v > 0 {
				dc.vals = append(dc.vals, v)
			}
		}
	}
	slices.Sort(dc.vals)
	dc.vals = slices.Compact(dc.vals)
	// The smallest positive value always works on a balanced matrix
	// (full support); binary search the largest workable value.
	dc.matcher.MatchSupportAtLeastInto(dc.thickCur, dc.work, dc.vals[0])
	if dc.matcher.MatchedCount() != m {
		return false
	}
	copy(dc.thickBest, dc.thickCur)
	lo, hi := 0, len(dc.vals)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		dc.matcher.MatchSupportAtLeastInto(dc.thickCur, dc.work, dc.vals[mid])
		if dc.matcher.MatchedCount() == m {
			copy(dc.thickBest, dc.thickCur)
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return true
}

// Update repairs the previous result after the demand shrank by
// served: D' = D − served. Because a sum of perfect matchings is
// automatically balanced, the repair only has to (a) shed the load
// delta Σq − ρ(D') from existing term counts while (b) keeping the
// coverage invariant Σ q_u·Π_u ≥ D'. It walks the terms once,
// reducing each count by the minimum coverage slack along its
// matching, and stops as soon as the delta is shed — so a typical
// slot touches a handful of terms and never runs a matching. When the
// one-pass greedy cannot shed the full delta, it falls back to a cold
// recomputation (counted by Obs.UpdateFallbacks). served entries must
// not exceed the current demand.
//
//coflow:allocfree
//coflow:pooled
func (dc *Decomposer) Update(served *matrix.Matrix) (*Decomposition, error) {
	if !dc.primed {
		return nil, fmt.Errorf("bvn: Update before a successful Decompose")
	}
	if served.Rows() != served.Cols() || served.Rows() != dc.m {
		panic(fmt.Sprintf("bvn: decomposer size %d, served matrix %d×%d", dc.m, served.Rows(), served.Cols()))
	}
	span := dc.obs.UpdateSeconds.Start()
	defer span.End()
	dc.obs.Updates.Inc()
	m := dc.m
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			v := served.At(i, j)
			if v == 0 {
				continue
			}
			nd := dc.demand.At(i, j) - v
			if nd < 0 {
				dc.primed = false
				return nil, fmt.Errorf("bvn: served %d exceeds demand %d at (%d,%d)", v, dc.demand.At(i, j), i, j)
			}
			dc.demand.Set(i, j, nd)
		}
	}
	// ρ(D') via the augmentation scratch sum buffers.
	rows := dc.demand.RowSumsInto(dc.augSc.rows)
	cols := dc.demand.ColSumsInto(dc.augSc.cols)
	var rho2 int64
	for i := range rows {
		if rows[i] > rho2 {
			rho2 = rows[i]
		}
		if cols[i] > rho2 {
			rho2 = cols[i]
		}
	}
	delta := dc.dec.Load - rho2
	if delta < 0 {
		dc.primed = false
		return nil, fmt.Errorf("bvn: load rose from %d to %d under Update; demand must only shrink", dc.dec.Load, rho2)
	}
	for u := 0; u < len(dc.terms) && delta > 0; u++ {
		t := &dc.terms[u]
		// slack = min over the term's cells of (coverage − demand):
		// reducing the count by more would break coverage there.
		slack := delta
		if t.Count < slack {
			slack = t.Count
		}
		for i, j := range t.Perm.To {
			if s := dc.cover.At(i, j) - dc.demand.At(i, j); s < slack {
				slack = s
				if slack == 0 {
					break
				}
			}
		}
		if slack <= 0 {
			continue
		}
		t.Count -= slack
		delta -= slack
		for i, j := range t.Perm.To {
			dc.cover.Add(i, j, -slack)
		}
	}
	if delta > 0 {
		// Greedy repair could not shed the whole delta (the remaining
		// slack sits on cells shared between terms in a conflicting
		// order); recompute cold off the already-updated demand.
		dc.obs.UpdateFallbacks.Inc()
		return dc.cold(dc.lastStrategy)
	}
	// Compact exhausted terms, swapping pool entries alongside so the
	// permutation-buffer pool keeps owning every allocated buffer.
	w := 0
	for u := 0; u < len(dc.terms); u++ {
		if dc.terms[u].Count == 0 {
			continue
		}
		if w != u {
			dc.permBufs[w], dc.permBufs[u] = dc.permBufs[u], dc.permBufs[w]
			dc.terms[w] = dc.terms[u]
		}
		w++
	}
	dc.terms = dc.terms[:w]
	dc.dec.Load = rho2
	dc.dec.Terms = dc.terms
	dc.dec.augmented = nil
	return &dc.dec, nil
}
