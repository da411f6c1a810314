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

// randomProblem generates a random sparse LP shaped to exercise every
// row reduction and status path: small integer-ish coefficients (ties and
// degeneracy), mixed senses, occasional empty/singleton rows,
// duplicate entries, and negative right-hand sides.
func randomProblem(rng *rand.Rand) *Problem {
	numVars := 1 + rng.Intn(10)
	numRows := rng.Intn(12)
	p := NewProblem(numVars)
	for v := 0; v < numVars; v++ {
		switch rng.Intn(4) {
		case 0: // zero cost: columns only their rows say anything about
		default:
			p.SetObjective(v, float64(rng.Intn(11)-5)/2)
		}
	}
	for i := 0; i < numRows; i++ {
		sense := Sense(rng.Intn(3))
		rhs := float64(rng.Intn(21)-8) / 2
		var entries []Entry
		switch rng.Intn(10) {
		case 0: // empty row
		case 1: // singleton row
			entries = append(entries, Entry{Var: rng.Intn(numVars), Coef: float64(rng.Intn(9)-4) / 2})
		default:
			nnz := 1 + rng.Intn(numVars)
			for k := 0; k < nnz; k++ {
				coef := float64(rng.Intn(9)-4) / 2
				if coef == 0 {
					coef = 1
				}
				entries = append(entries, Entry{Var: rng.Intn(numVars), Coef: coef})
			}
		}
		p.AddConstraint(entries, sense, rhs)
	}
	return p
}
