// Package matrix provides dense non-negative integer matrices and the
// load computations used throughout the coflow scheduling stack.
//
// A coflow on an m×m non-blocking switch is represented by an m×m
// matrix D = (d_ij) of non-negative integers, where d_ij is the number
// of data units to transfer from ingress port i to egress port j.
// The load ρ(D) — the maximum over all row and column sums — is a
// universal lower bound on the number of time slots needed to clear D
// with matching schedules, and by the Birkhoff–von Neumann
// decomposition (package bvn) it is also achievable.
package matrix

import (
	"fmt"
	"strings"
)

// Matrix is a dense rows×cols matrix of non-negative int64 values.
// The zero value is not usable; construct with New or FromRows.
type Matrix struct {
	rows, cols int
	data       []int64 // row-major, len rows*cols
}

// New returns a zeroed rows×cols matrix.
// It panics if either dimension is not positive.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %d×%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]int64, rows*cols)}
}

// NewSquare returns a zeroed m×m matrix.
func NewSquare(m int) *Matrix { return New(m, m) }

// FromRows builds a matrix from a slice of rows. All rows must have
// equal length and all entries must be non-negative.
func FromRows(rows [][]int64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("matrix: empty row data")
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("matrix: row %d has %d entries, want %d", i, len(r), m.cols)
		}
		for j, v := range r {
			if v < 0 {
				return nil, fmt.Errorf("matrix: negative entry %d at (%d,%d)", v, i, j)
			}
			m.data[i*m.cols+j] = v
		}
	}
	return m, nil
}

// MustFromRows is FromRows that panics on error; intended for tests
// and literals.
func MustFromRows(rows [][]int64) *Matrix {
	m, err := FromRows(rows)
	if err != nil {
		panic(err)
	}
	return m
}

// Rows returns the number of rows.
//
//coflow:allocfree
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
//
//coflow:allocfree
func (m *Matrix) Cols() int { return m.cols }

// At returns the entry at row i, column j.
//
//coflow:allocfree
func (m *Matrix) At(i, j int) int64 { return m.data[i*m.cols+j] }

// Set assigns v to entry (i, j). It panics if v is negative.
//
//coflow:allocfree
func (m *Matrix) Set(i, j int, v int64) {
	if v < 0 {
		panic(fmt.Sprintf("matrix: negative value %d at (%d,%d)", v, i, j))
	}
	m.data[i*m.cols+j] = v
}

// Add adds v (which may be negative) to entry (i, j), panicking if the
// result would be negative.
//
//coflow:allocfree
func (m *Matrix) Add(i, j int, v int64) {
	idx := i*m.cols + j
	nv := m.data[idx] + v
	if nv < 0 {
		panic(fmt.Sprintf("matrix: entry (%d,%d) would become negative (%d)", i, j, nv))
	}
	m.data[idx] = nv
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{rows: m.rows, cols: m.cols, data: make([]int64, len(m.data))}
	copy(c.data, m.data)
	return c
}

// CopyFrom overwrites m's entries with other's. Dimensions must match.
// Copying a matrix onto itself is a no-op.
//
//coflow:allocfree
func (m *Matrix) CopyFrom(other *Matrix) {
	if m.rows != other.rows || m.cols != other.cols {
		panic(fmt.Sprintf("matrix: CopyFrom dimension mismatch %d×%d vs %d×%d", m.rows, m.cols, other.rows, other.cols))
	}
	copy(m.data, other.data)
}

// Zero resets every entry of m to 0 in place.
//
//coflow:allocfree
func (m *Matrix) Zero() {
	clear(m.data)
}

// AddMatrix adds other into m entrywise. Dimensions must match.
func (m *Matrix) AddMatrix(other *Matrix) {
	if m.rows != other.rows || m.cols != other.cols {
		panic(fmt.Sprintf("matrix: dimension mismatch %d×%d vs %d×%d", m.rows, m.cols, other.rows, other.cols))
	}
	for i := range m.data {
		m.data[i] += other.data[i]
	}
}

// SubMatrix subtracts other from m entrywise, panicking if any entry
// would become negative.
func (m *Matrix) SubMatrix(other *Matrix) {
	if m.rows != other.rows || m.cols != other.cols {
		panic(fmt.Sprintf("matrix: dimension mismatch %d×%d vs %d×%d", m.rows, m.cols, other.rows, other.cols))
	}
	for i := range m.data {
		v := m.data[i] - other.data[i]
		if v < 0 {
			panic("matrix: SubMatrix would produce a negative entry")
		}
		m.data[i] = v
	}
}

// RowSum returns the sum of row i.
//
//coflow:allocfree
func (m *Matrix) RowSum(i int) int64 {
	var s int64
	row := m.data[i*m.cols : (i+1)*m.cols]
	for _, v := range row {
		s += v
	}
	return s
}

// ColSum returns the sum of column j.
func (m *Matrix) ColSum(j int) int64 {
	var s int64
	for i := 0; i < m.rows; i++ {
		s += m.data[i*m.cols+j]
	}
	return s
}

// RowSums returns all row sums.
func (m *Matrix) RowSums() []int64 {
	return m.RowSumsInto(make([]int64, m.rows))
}

// RowSumsInto writes all row sums into dst (which must have length
// Rows()) and returns it. The allocation-free form of RowSums.
//
//coflow:allocfree
func (m *Matrix) RowSumsInto(dst []int64) []int64 {
	for i := 0; i < m.rows; i++ {
		dst[i] = m.RowSum(i)
	}
	return dst
}

// ColSums returns all column sums.
func (m *Matrix) ColSums() []int64 {
	return m.ColSumsInto(make([]int64, m.cols))
}

// ColSumsInto writes all column sums into dst (which must have length
// Cols()) and returns it. The allocation-free form of ColSums.
//
//coflow:allocfree
func (m *Matrix) ColSumsInto(dst []int64) []int64 {
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			dst[j] += v
		}
	}
	return dst
}

// Total returns the sum of all entries.
func (m *Matrix) Total() int64 {
	var s int64
	for _, v := range m.data {
		s += v
	}
	return s
}

// Load returns ρ(D): the maximum row or column sum (Eq. 18 of the
// paper). It is 0 for an all-zero matrix.
func (m *Matrix) Load() int64 {
	var load int64
	cols := make([]int64, m.cols)
	for i := 0; i < m.rows; i++ {
		var rs int64
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			rs += v
			cols[j] += v
		}
		if rs > load {
			load = rs
		}
	}
	for _, cs := range cols {
		if cs > load {
			load = cs
		}
	}
	return load
}

// IsZero reports whether every entry is zero.
func (m *Matrix) IsZero() bool {
	for _, v := range m.data {
		if v != 0 {
			return false
		}
	}
	return true
}

// NonZeroCount returns the number of strictly positive entries (the
// paper's M0 statistic used for trace filtering).
func (m *Matrix) NonZeroCount() int {
	n := 0
	for _, v := range m.data {
		if v > 0 {
			n++
		}
	}
	return n
}

// Equal reports whether m and other have identical shape and entries.
func (m *Matrix) Equal(other *Matrix) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, v := range m.data {
		if v != other.data[i] {
			return false
		}
	}
	return true
}

// GE reports whether m >= other entrywise (same shape required).
func (m *Matrix) GE(other *Matrix) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i, v := range m.data {
		if v < other.data[i] {
			return false
		}
	}
	return true
}

// IsDiagonal reports whether all off-diagonal entries are zero (the
// concurrent-open-shop special case of Appendix A).
func (m *Matrix) IsDiagonal() bool {
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if i != j && m.data[i*m.cols+j] != 0 {
				return false
			}
		}
	}
	return true
}

// String renders the matrix in a compact bracketed form, useful in
// test failure messages.
func (m *Matrix) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", m.At(i, j))
		}
		b.WriteByte(']')
	}
	b.WriteByte(']')
	return b.String()
}

// Permutation represents a (possibly partial) matching between rows
// and columns: To[i] = j means row i is matched to column j, and
// To[i] = Unmatched means row i is idle.
type Permutation struct {
	To []int
}

// Unmatched marks an unmatched row in a Permutation.
const Unmatched = -1

// NewPermutation returns an all-unmatched permutation over m rows.
func NewPermutation(m int) Permutation {
	to := make([]int, m)
	for i := range to {
		to[i] = Unmatched
	}
	return Permutation{To: to}
}

// IsPerfect reports whether every row is matched to a distinct column.
func (p Permutation) IsPerfect() bool {
	seen := make([]bool, len(p.To))
	for _, j := range p.To {
		if j == Unmatched || j < 0 || j >= len(p.To) || seen[j] {
			return false
		}
		seen[j] = true
	}
	return true
}

// IsValid reports whether no column is used twice (partial matchings
// allowed).
func (p Permutation) IsValid() bool {
	seen := make(map[int]bool, len(p.To))
	for _, j := range p.To {
		if j == Unmatched {
			continue
		}
		if j < 0 || seen[j] {
			return false
		}
		seen[j] = true
	}
	return true
}

// Size returns the number of matched rows.
func (p Permutation) Size() int {
	n := 0
	for _, j := range p.To {
		if j != Unmatched {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of p.
func (p Permutation) Clone() Permutation {
	to := make([]int, len(p.To))
	copy(to, p.To)
	return Permutation{To: to}
}

// Matrix returns the 0/1 matrix of the matching.
func (p Permutation) Matrix() *Matrix {
	m := NewSquare(len(p.To))
	for i, j := range p.To {
		if j != Unmatched {
			m.Set(i, j, 1)
		}
	}
	return m
}
