package matrix

import (
	"fmt"
	"sort"
)

// sparseRow is one compact row of a Sparse: its ingress port, its live
// sum and its cells ent[lo:hi]. They share one record so the slot scan
// reads one record per row, not three arrays.
type sparseRow struct {
	port   int
	sum    int64
	lo, hi int32
}

// SparseEntry is one positive demand cell of a sparse matrix: Val data
// units from ingress Row to egress Col.
type SparseEntry struct {
	Row, Col int
	Val      int64
}

// Sparse is a CSR-style sparse demand matrix specialized for the slot
// pipeline: the set of non-zero cells is fixed at construction (values
// may only decrease, as service drains demand), and the row sums,
// column sums and load ρ are maintained incrementally in O(changed
// entries) per mutation instead of O(m²) rescans.
//
// Ports are remapped to compact indices: only the rows and columns the
// demand actually touches get a sum slot, so a coflow touching 8 port
// pairs on a 500-port switch carries O(8) state, and recomputing its
// load after a decrement costs O(distinct ports), not O(m).
//
// The zero value is not usable; construct with NewSparse. Sparse is
// not safe for concurrent use.
type Sparse struct {
	// entries, sorted by (Row, Col); the cell set never changes.
	ent []SparseEntry
	// compact rows in ascending port order, each with its live sum and
	// CSR cell range.
	rows []sparseRow
	// compact row/col index of each entry (parallel to ent).
	rowIdx, colIdx []int32
	// distinct column ports in ascending order (compact index -> port).
	colID []int
	// incrementally maintained column sums over compact indices.
	colSum []int64
	total  int64
	// load is ρ, the largest row or column sum, recomputed lazily: a
	// decrement that lowers a sum equal to the current load marks it
	// dirty.
	load      int64
	loadDirty bool
	// maskCol is per-compact-column scratch for LoadMasked, allocated
	// at construction so the masked statistics stay allocation-free.
	maskCol []int64
}

// NewSparse builds a Sparse from entries. Entries sharing a (row, col)
// cell accumulate; zero-valued entries are dropped. It fails on a
// negative port, a negative value, or no positive entries at all
// (callers represent empty demand as absence, not as an empty Sparse).
func NewSparse(entries []SparseEntry) (*Sparse, error) {
	agg := make(map[[2]int]int64, len(entries))
	for _, e := range entries {
		if e.Row < 0 || e.Col < 0 {
			return nil, fmt.Errorf("matrix: sparse entry (%d,%d) has a negative port", e.Row, e.Col)
		}
		if e.Val < 0 {
			return nil, fmt.Errorf("matrix: sparse entry (%d,%d) has negative value %d", e.Row, e.Col, e.Val)
		}
		if e.Val > 0 {
			agg[[2]int{e.Row, e.Col}] += e.Val
		}
	}
	if len(agg) == 0 {
		return nil, fmt.Errorf("matrix: sparse matrix needs at least one positive entry")
	}
	s := &Sparse{ent: make([]SparseEntry, 0, len(agg))}
	for k, v := range agg {
		s.ent = append(s.ent, SparseEntry{Row: k[0], Col: k[1], Val: v})
	}
	sort.Slice(s.ent, func(a, b int) bool {
		if s.ent[a].Row != s.ent[b].Row {
			return s.ent[a].Row < s.ent[b].Row
		}
		return s.ent[a].Col < s.ent[b].Col
	})
	s.index()
	return s, nil
}

// index builds the compact rows, the compact column map and the
// initial sums from the sorted entry list.
func (s *Sparse) index() {
	colOf := map[int]int32{}
	for _, e := range s.ent {
		if _, ok := colOf[e.Col]; !ok {
			colOf[e.Col] = 0
			s.colID = append(s.colID, e.Col)
		}
	}
	sort.Ints(s.colID)
	for i, p := range s.colID {
		colOf[p] = int32(i)
	}
	s.colSum = make([]int64, len(s.colID))
	s.rowIdx = make([]int32, len(s.ent))
	s.colIdx = make([]int32, len(s.ent))
	// ent is sorted by row, so a row starts wherever the port changes.
	for i, e := range s.ent {
		if i == 0 || e.Row != s.ent[i-1].Row {
			s.rows = append(s.rows, sparseRow{port: e.Row, lo: int32(i)})
		}
		ri, ci := int32(len(s.rows)-1), colOf[e.Col]
		s.rowIdx[i], s.colIdx[i] = ri, ci
		s.rows[ri].sum += e.Val
		s.rows[ri].hi = int32(i + 1)
		s.colSum[ci] += e.Val
		s.total += e.Val
	}
	s.load = s.maxSum()
	s.maskCol = make([]int64, len(s.colID))
}

//coflow:allocfree
func (s *Sparse) maxSum() int64 {
	var b int64
	for i := range s.rows {
		if v := s.rows[i].sum; v > b {
			b = v
		}
	}
	for _, v := range s.colSum {
		if v > b {
			b = v
		}
	}
	return b
}

// Len returns the number of cells (fixed at construction; cells drained
// to zero still count). The slot scan does not walk cells by Len: it
// walks rows (NumRows, Row), so a drained or busy row costs one check.
//
//coflow:allocfree
func (s *Sparse) Len() int { return len(s.ent) }

// NumRows returns the number of compact rows: the distinct ingress
// ports that held demand at construction.
//
//coflow:allocfree
func (s *Sparse) NumRows() int { return len(s.rows) }

// Row returns compact row r: its ingress port, its live sum (the row's
// remaining demand, kept by Dec) and its cells as the entry range
// [lo, hi), in ascending column order.
//
//coflow:allocfree
func (s *Sparse) Row(r int) (port int, sum int64, lo, hi int) {
	rw := &s.rows[r]
	return rw.port, rw.sum, int(rw.lo), int(rw.hi)
}

// Entry returns cell e: its ports and current value.
//
//coflow:allocfree
func (s *Sparse) Entry(e int) (row, col int, val int64) {
	it := &s.ent[e]
	return it.Row, it.Col, it.Val
}

// Dec drains d units from cell e, updating the row sum, column sum and
// total in O(1) and deferring the ρ update until the next Load call
// (and only when the decrement could have lowered it). It panics if
// the cell would go negative.
//
//coflow:allocfree
func (s *Sparse) Dec(e int, d int64) {
	it := &s.ent[e]
	if d < 0 || it.Val < d {
		panic(fmt.Sprintf("matrix: Dec(%d, %d) on cell (%d,%d) holding %d", e, d, it.Row, it.Col, it.Val))
	}
	if d == 0 {
		return
	}
	it.Val -= d
	ri, ci := s.rowIdx[e], s.colIdx[e]
	if s.rows[ri].sum == s.load || s.colSum[ci] == s.load {
		s.loadDirty = true
	}
	s.rows[ri].sum -= d
	s.colSum[ci] -= d
	s.total -= d
}

// Load returns ρ: the maximum row or column sum. Cached between
// mutations; recomputed over the compact sums only when a decrement
// touched a maximal row or column.
//
//coflow:allocfree
func (s *Sparse) Load() int64 {
	if s.loadDirty {
		s.load = s.maxSum()
		s.loadDirty = false
	}
	return s.load
}

// Total returns the sum of all cells.
//
//coflow:allocfree
func (s *Sparse) Total() int64 { return s.total }

// portDown reports whether port p is marked failed in the mask. Ports
// beyond the mask are up, so a nil or short mask degrades gracefully.
//
//coflow:allocfree
func portDown(down []bool, p int) bool { return p < len(down) && down[p] }

// LoadMasked returns ρ of the demand restricted to live ports: the
// maximum row or column sum counting only cells whose ingress AND
// egress are both up (down[p] true marks port p failed). This is the
// serviceable bottleneck — demand stranded on a failed port is parked,
// not counted — which is what masked-aware priorities (SEBF under port
// failures) need. O(cells); the column scratch is preallocated so the
// call is allocation-free.
//
//coflow:allocfree
func (s *Sparse) LoadMasked(down []bool) int64 {
	for i := range s.maskCol {
		s.maskCol[i] = 0
	}
	var b int64
	for r := range s.rows {
		rw := &s.rows[r]
		if portDown(down, rw.port) {
			continue
		}
		var rs int64
		for e, hi := int(rw.lo), int(rw.hi); e < hi; e++ {
			ci := s.colIdx[e]
			if portDown(down, s.colID[ci]) {
				continue
			}
			v := s.ent[e].Val
			rs += v
			s.maskCol[ci] += v
		}
		if rs > b {
			b = rs
		}
	}
	for _, v := range s.maskCol {
		if v > b {
			b = v
		}
	}
	return b
}

// TotalMasked returns the sum of cells whose ingress and egress are
// both up under the mask — the serviceable remaining work. O(cells).
//
//coflow:allocfree
func (s *Sparse) TotalMasked(down []bool) int64 {
	var t int64
	for i := range s.ent {
		if portDown(down, s.ent[i].Row) || portDown(down, s.ent[i].Col) {
			continue
		}
		t += s.ent[i].Val
	}
	return t
}

// Dense materializes the current values as a dense m×m matrix. It
// panics if any port is out of range. For tests and interop, not the
// hot path.
func (s *Sparse) Dense(m int) *Matrix {
	d := NewSquare(m)
	for _, e := range s.ent {
		if e.Val > 0 {
			d.Add(e.Row, e.Col, e.Val)
		}
	}
	return d
}
