// Package allocfree exercises the allocfree analyzer: each flagged
// construct carries a // want comment with the expected message.
package allocfree

type scratch struct {
	buf  []int
	seen map[int]int
}

//coflow:allocfree
func appendsFresh() []int {
	var local []int
	local = append(local, 1) // want "not receiver- or parameter-owned"
	return local
}

// appendsOwned appends only into receiver- and parameter-owned
// scratch: allowed.
//
//coflow:allocfree
func (s *scratch) appendsOwned(vals, dst []int) []int {
	s.buf = s.buf[:0]
	for _, v := range vals {
		s.buf = append(s.buf, v)
		dst = append(dst, v)
	}
	return dst
}

// Every form of map write may grow the map; reads and deletes cannot.
//
//coflow:allocfree
func (s *scratch) writesMap(k int) int {
	s.seen[k] = 1  // want "writes into a map"
	s.seen[k]++    // want "writes into a map"
	s.seen[k] += 2 // want "writes into a map"
	delete(s.seen, k+1)
	return s.seen[k]
}

// A closure's body runs on the annotated path too.
//
//coflow:allocfree
func (s *scratch) insideClosure(vals []int) {
	each := func(v int) {
		s.seen[v] = v // want "writes into a map"
	}
	for _, v := range vals {
		each(v)
	}
}

func helper() {}

//coflow:allocfree
func annotatedCallee() {}

// The contract is transitive: calling an unannotated local function
// is flagged, calling an annotated one is not.
//
//coflow:allocfree
func callsHelper() {
	helper() // want "not annotated"
	annotatedCallee()
}

// What the compiler and the runtime gates own is not this analyzer's
// business: literals, make and closures pass.
//
//coflow:allocfree
func leftToTheOtherGates(n int) []int {
	_ = []int{1, 2, 3}
	_ = &scratch{}
	return make([]int, n)
}

// A reasoned suppression silences the finding.
//
//coflow:allocfree
func suppressedColdPath() {
	//lint:ignore allocfree cold path: runs once at startup, not per slot
	helper()
}

// A suppression that silences nothing is itself a finding: it would
// hide the next real one on its line.
//
//coflow:allocfree
func staleSuppression(x int) int {
	// want(+1) "lint:ignore allocfree suppresses nothing"
	//lint:ignore allocfree the helper call this excused was removed long ago
	return x + 1
}

// A misspelt annotation guards nothing, so it is a finding.
//
// want(+2) "unknown annotation //coflow:allocfre"
//
//coflow:allocfre
func misspelt() []int {
	return make([]int, 1)
}

// Unannotated functions may allocate freely.
func unannotated() []int {
	return append([]int(nil), 1, 2, 3)
}
