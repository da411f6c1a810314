package lp

// The simplex's pivot path on random LPs, pinned bit for bit;
// internal/lpmodel's TestSolvePathPinned pins it on coflow LPs.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// randomPathDigestWant is the SHA-256 TestRandomSolvePathPinned
// computes; see internal/lpmodel's solvePathDigestWant.
const randomPathDigestWant = "d5e2533ec27a20da7a56087e92743c11fcb1f997b54e4db8168145ce50986081"

// TestRandomSolvePathPinned hashes the status, pivot count, objective
// bits and every X bit of 800 randomProblem instances, each solved
// cold and from a random start.
func TestRandomSolvePathPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for n := 0; n < 800; n++ {
		p := randomProblem(rng)
		start := make([]int, rng.Intn(p.numVars+2))
		for i := range start {
			start[i] = rng.Intn(p.numVars+2) - 1
		}
		for _, s := range [][]int{nil, start} {
			sol, err := SolveSparseFrom(p, s)
			if err != nil {
				t.Fatalf("instance %d: %v", n, err)
			}
			put(uint64(sol.Status))
			put(uint64(sol.Iterations))
			put(math.Float64bits(sol.Objective))
			for _, x := range sol.X {
				put(math.Float64bits(x))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != randomPathDigestWant {
		t.Fatalf("solve paths changed: digest %s, want %s", got, randomPathDigestWant)
	}
}
