// Package allocfree exercises the allocfree analyzer: each flagged
// construct carries a // want comment with the expected message.
package allocfree

import "fmt"

type scratch struct {
	buf []int
}

//coflow:allocfree
func makesSlice() []int {
	return []int{1, 2, 3} // want "slice literal"
}

//coflow:allocfree
func makesMap() {
	m := map[int]int{} // want "map literal"
	m[1] = 2           // want "assigns into a map"
	_ = m
}

//coflow:allocfree
func callsMake() {
	_ = make([]int, 4) // want "calls make"
}

//coflow:allocfree
func callsNew() {
	_ = new(int) // want "calls new"
}

//coflow:allocfree
func escapingComposite() *scratch {
	return &scratch{} // want "address of a composite literal"
}

//coflow:allocfree
func closes() {
	f := func() {} // want "function literal"
	f()
}

//coflow:allocfree
func spawns() {
	go annotatedCallee() // want "goroutine"
}

//coflow:allocfree
func concats(a, b string) string {
	return a + b // want "concatenates strings"
}

//coflow:allocfree
func callsFmt(x int) {
	fmt.Println(x) // want "calls fmt"
}

//coflow:allocfree
func appendsFresh() []int {
	var local []int
	local = append(local, 1) // want "not receiver- or parameter-owned"
	return local
}

// appendsOwned appends only into receiver-owned scratch: allowed.
//
//coflow:allocfree
func (s *scratch) appendsOwned(vals []int) {
	s.buf = s.buf[:0]
	for _, v := range vals {
		s.buf = append(s.buf, v)
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

//coflow:allocfree
func takesAny(v any) bool { return v != nil }

//coflow:allocfree
func boxes(x int) bool {
	return takesAny(x) // want "boxes"
}

//coflow:allocfree
func convertsToString(b []byte) string {
	return string(b) // want "converts to string"
}

//coflow:allocfree
func convertsToBytes(s string) []byte {
	return []byte(s) // want "byte/rune slice"
}

// A reasoned suppression silences the finding.
//
//coflow:allocfree
func suppressedColdPath() {
	//lint:ignore allocfree cold path: runs once at startup, not per slot
	_ = make([]int, 1)
}

// A suppression that silences nothing is itself a finding: it would
// hide the next real one on its line.
//
//coflow:allocfree
func staleSuppression(x int) int {
	// want(+1) "lint:ignore allocfree suppresses nothing"
	//lint:ignore allocfree the make this excused was removed long ago
	return x + 1
}

// A panic statement is a cold terminator, not an allocation site: its
// formatted message is exempt. The same fmt call outside a panic is
// still flagged.
//
//coflow:allocfree
func panicsCold(n int) string {
	if n < 0 {
		panic(fmt.Sprintf("negative size %d", n))
	}
	return fmt.Sprintf("size %d", n) // want "calls fmt"
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
