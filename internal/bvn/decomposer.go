package bvn

import (
	"fmt"

	"coflow/internal/matching"
	"coflow/internal/matrix"
)

// Decomposer is the reusable, zero-allocation engine behind Algorithm
// 1 for a fixed port count m. It owns every piece of scratch a
// decomposition needs — the augmentation sum buffers and deficit
// heaps, the working copy of D̃, a matching.Matcher, an incrementally
// maintained support adjacency, and a recycled pool of permutation
// buffers — so once the pool is warm, Decompose performs no
// allocations (enforced by TestDecomposeDoesNotAllocate and the
// allocfree analyzer). Only storage carries over: every decomposition
// starts from an empty matching, so its terms depend on d alone.
//
// The returned *Decomposition aliases the Decomposer's recycled
// storage: it is valid until the next Decompose call on the same
// Decomposer. Callers that need it afterwards take a Clone
// first. A Decomposer is NOT safe for concurrent use.
type Decomposer struct {
	m       int
	matcher *matching.Matcher
	augSc   augScratch

	// work is the draining copy of D̃ a decomposition extracts from.
	work *matrix.Matrix

	// Support adjacency over work, installed into the matcher via
	// SetAdjacency and maintained incrementally with O(1) swap-deletes:
	// row i's live columns are adjDat[i*m : i*m+adjLen[i]], and
	// edgePos[i*m+j] is the absolute adjDat position of edge (i,j), or
	// -1. nnz counts live support cells, making the extraction loop's
	// termination test O(1).
	adjOff  []int32
	adjLen  []int32
	adjDat  []int32
	edgePos []int32
	nnz     int

	// Lazy subtraction state of Step 2. With G the Σq extracted so
	// far, row i's matched cell (i, lvlCol[i]) holds lvl[i] − G; work
	// itself is stale there until the row drains or rematches, when the
	// cell is written back. drained lists the rows whose matched cell
	// the current term empties.
	lvl     []int64
	lvlCol  []int32
	drained []int32

	// Recycled term storage: terms is the reused Terms backing array
	// and permBufs the pool of m-length permutation buffers, where
	// term k of a decomposition writes into permBufs[k].
	terms    []Term
	permBufs [][]int

	dec Decomposition
	obs Obs
}

// NewDecomposer returns a Decomposer for m×m demand matrices. It
// performs all sizing allocations up front (O(m²) memory).
func NewDecomposer(m int) *Decomposer {
	if m <= 0 {
		panic(fmt.Sprintf("bvn: non-positive decomposer size %d", m))
	}
	dc := &Decomposer{
		m:       m,
		matcher: matching.NewMatcher(m),
		work:    matrix.NewSquare(m),
		adjOff:  make([]int32, m),
		adjLen:  make([]int32, m),
		adjDat:  make([]int32, m*m),
		edgePos: make([]int32, m*m),
		lvl:     make([]int64, m),
		lvlCol:  make([]int32, m),
		drained: make([]int32, 0, m),
	}
	for i := 0; i < m; i++ {
		dc.adjOff[i] = int32(i * m)
	}
	dc.augSc.grow(m)
	return dc
}

// SetObs installs per-instance instrumentation (term-reuse hit rate,
// matcher solve counters); the zero Obs disables it. Not safe to
// call concurrently with decompositions.
func (dc *Decomposer) SetObs(o Obs) {
	dc.obs = o
	dc.matcher.SetObs(o.Matcher)
}

// Strategy and StrategyFirst are read by nothing: Step 2 has one
// extraction rule, any perfect matching on the support, as the paper's
// Algorithm 1 writes it. They stay declared, with DecomposeWith and
// switchsim.Plan.Strategy, only because benchmark/batch.go names them
// and this round may not edit benchmark/, as core.Options.SparseLP
// does; the next benchmark PR drops them from both places.
type Strategy int

// StrategyFirst is the one extraction rule Decompose runs.
const StrategyFirst Strategy = 0

// DecomposeWith is Decompose; the strategy is ignored (see Strategy).
//
//coflow:pooled
func (dc *Decomposer) DecomposeWith(d *matrix.Matrix, _ Strategy) (*Decomposition, error) {
	return dc.Decompose(d)
}

// Decompose runs Algorithm 1 on d, reusing all scratch from previous
// calls. See the type comment for the aliasing contract of the result.
//
//coflow:allocfree
//coflow:pooled
func (dc *Decomposer) Decompose(d *matrix.Matrix) (*Decomposition, error) {
	if d.Rows() != d.Cols() || d.Rows() != dc.m {
		panic(fmt.Sprintf("bvn: decomposer size %d, matrix %d×%d", dc.m, d.Rows(), d.Cols()))
	}
	decSpan := dc.obs.DecomposeSeconds.Start()
	defer decSpan.End()
	augSpan := dc.obs.AugmentSeconds.Start()
	dc.work.CopyFrom(d)
	rho := dc.augSc.augmentInto(dc.work)
	augSpan.End()
	dc.terms = dc.terms[:0]
	dc.dec = Decomposition{Load: rho, m: dc.m}
	if rho > 0 {
		var err error
		exSpan := dc.obs.ExtractSeconds.Start()
		err = dc.extractFirstAll()
		exSpan.End()
		if err != nil {
			return nil, err
		}
	}
	dc.dec.Terms = dc.terms
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

// extractFirstAll is Step 2 on the incremental path: one cold maximum
// matching up front, then per term a scan of the
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
	// Start from the empty matching, so the terms are a function of d
	// alone, then solve it to maximum with Hopcroft–Karp.
	dc.matcher.Reset()
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
