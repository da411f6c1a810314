package lpmodel

// The simplex's pivot path on the LPs this package builds, pinned bit
// for bit. internal/lp's TestRandomSolvePathPinned pins it on random
// LPs.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"coflow/internal/lp"
)

// solvePathDigestWant is the SHA-256 TestSolvePathPinned computes. The
// simplex kernels may get faster; they may not change one rounding, so
// a change here is a change to every H_LP order and lower bound and
// must be deliberate.
const solvePathDigestWant = "aa9f3fc77a0faa6d8be279df1cb300e9ab2286ad3962f455d50fec81363622e3"

// TestSolvePathPinned hashes, for seeded interval LPs from 4 to 100
// ports with and without release dates and for the (LP) and (LP-EXP)
// golden relaxations, each solved cold and from the H_ρ start: the
// status, the pivot count, the objective and every X as bits, and the
// H_LP order read off the optimum.
func TestSolvePathPinned(t *testing.T) {
	var cases []relaxation
	for i, ports := range []int{4, 10, 20, 50, 100} {
		for _, interarrival := range []float64{0, 25} {
			cases = append(cases, relaxation{
				name: fmt.Sprintf("%d ports, interarrival %g", ports, interarrival),
				ins:  generated(ports, 2*ports, int64(40+i), interarrival),
			})
		}
	}
	cases = append(cases, goldenRelaxations()...)
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for _, r := range cases {
		mod := r.model(t)
		for _, start := range [][]int{nil, mod.greedyStart(r.ins)} {
			sol, err := lp.SolveSparseFrom(mod.prob, start)
			if err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			put(uint64(sol.Status))
			put(uint64(sol.Iterations))
			put(math.Float64bits(sol.Objective))
			for _, x := range sol.X {
				put(math.Float64bits(x))
			}
			out, err := mod.read(r.ins, r.name, sol)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range out.Order {
				put(uint64(k))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != solvePathDigestWant {
		t.Fatalf("solve paths changed: digest %s, want %s", got, solvePathDigestWant)
	}
}
