package lp_test

// Differential harness: the sparse pipeline (presolve + revised
// simplex) is checked against the dense tableau — the same oracle
// pattern check.Shadow applies to the Step pipeline. Any divergence
// in status, objective, or primal feasibility is minimized by
// dropping rows/columns while the divergence persists, then dumped as
// a standalone MPS reproducer.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"coflow/internal/lp"
	"coflow/internal/lp/dense"
	"coflow/internal/obs"
)

// diffObjTol is the relative objective agreement required between the
// two solvers when both report Optimal.
const diffObjTol = 1e-6

// compareSparseDense runs both solvers on p, the sparse one from the
// given start basis (nil: cold), and returns a description of the first
// divergence, or "" when they agree. Any start is legal on any problem —
// the solver skips what it cannot seat — so minimization keeps it as it
// is while rows and columns go. Instances where either solver hits its
// iteration cap are skipped (no verdict to compare).
func compareSparseDense(p *lp.Problem, start []int) string {
	oracle, err := dense.Solve(p, nil)
	if err != nil {
		return fmt.Sprintf("dense solver error: %v", err)
	}
	sparse, err := lp.SolveSparseFrom(p, start)
	if err != nil {
		return fmt.Sprintf("sparse solver error: %v", err)
	}
	if oracle.Status == lp.IterLimit || sparse.Status == lp.IterLimit {
		return ""
	}
	if oracle.Status != sparse.Status {
		return fmt.Sprintf("status: dense=%v sparse=%v", oracle.Status, sparse.Status)
	}
	if oracle.Status != lp.Optimal {
		return ""
	}
	if diff := math.Abs(oracle.Objective - sparse.Objective); diff > diffObjTol*(1+math.Abs(oracle.Objective)) {
		return fmt.Sprintf("objective: dense=%.12g sparse=%.12g (diff %.3g)",
			oracle.Objective, sparse.Objective, diff)
	}
	if err := lp.CheckFeasible(p, sparse.X, 1e-5); err != nil {
		return fmt.Sprintf("sparse solution infeasible on original problem: %v", err)
	}
	return ""
}

// cloneWithoutRow copies p minus row drop.
func cloneWithoutRow(p *lp.Problem, drop int) *lp.Problem {
	np := lp.NewProblem(p.NumVars())
	for v := 0; v < p.NumVars(); v++ {
		np.SetObjective(v, p.Cost(v))
	}
	for i := 0; i < p.NumConstraints(); i++ {
		if i != drop {
			np.AddConstraint(p.Row(i))
		}
	}
	return np
}

// cloneWithoutVar copies p minus variable drop (entries removed,
// later variables renumbered). Returns nil when p has one variable.
func cloneWithoutVar(p *lp.Problem, drop int) *lp.Problem {
	if p.NumVars() <= 1 {
		return nil
	}
	renumber := func(v int) int {
		if v > drop {
			return v - 1
		}
		return v
	}
	np := lp.NewProblem(p.NumVars() - 1)
	for v := 0; v < p.NumVars(); v++ {
		if v != drop {
			np.SetObjective(renumber(v), p.Cost(v))
		}
	}
	for i := 0; i < p.NumConstraints(); i++ {
		row, sense, rhs := p.Row(i)
		entries := make([]lp.Entry, 0, len(row))
		for _, e := range row {
			if e.Var != drop {
				entries = append(entries, lp.Entry{Var: renumber(e.Var), Coef: e.Coef})
			}
		}
		np.AddConstraint(entries, sense, rhs)
	}
	return np
}

// minimizeDivergence greedily drops rows, then variables, keeping
// every removal that preserves some divergence. The result is the
// reproducer that gets dumped.
func minimizeDivergence(p *lp.Problem, start []int) *lp.Problem {
	for changed := true; changed; {
		changed = false
		for i := 0; i < p.NumConstraints(); i++ {
			np := cloneWithoutRow(p, i)
			if compareSparseDense(np, start) != "" {
				p = np
				changed = true
				i--
			}
		}
		for v := 0; v < p.NumVars(); v++ {
			np := cloneWithoutVar(p, v)
			if np == nil {
				continue
			}
			if compareSparseDense(np, start) != "" {
				p = np
				changed = true
				v--
			}
		}
	}
	return p
}

// reproducer renders p as MPS (%.17g, so ReadMPS gives back the same
// problem bit for bit) under a comment block that carries div.
func reproducer(p *lp.Problem, div string) ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "* %s\n", strings.ReplaceAll(div, "\n", "\n* "))
	err := lp.WriteMPS(&buf, p, "divergence")
	return buf.Bytes(), err
}

// dumpDivergence minimizes p and writes an MPS reproducer under
// testdata/failures, returning its path (best effort: "" on error).
func dumpDivergence(t *testing.T, p *lp.Problem, div string) string {
	t.Helper()
	min := minimizeDivergence(p, nil)
	minDiv := compareSparseDense(min, nil)
	if minDiv == "" { // minimization raced a tolerance edge; keep the original
		min, minDiv = p, div
	}
	dir := filepath.Join("testdata", "failures")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("reproducer dir: %v", err)
		return ""
	}
	data, err := reproducer(min, minDiv)
	if err != nil {
		t.Logf("reproducer encode: %v", err)
		return ""
	}
	path := filepath.Join(dir, fmt.Sprintf("divergence_%dv_%dr.mps", min.NumVars(), min.NumConstraints()))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Logf("reproducer write: %v", err)
		return ""
	}
	return path
}

// requireAgreement fails the test with a minimized reproducer when the
// two solvers diverge on p.
func requireAgreement(t *testing.T, p *lp.Problem, label string) {
	t.Helper()
	div := compareSparseDense(p, nil)
	if div == "" {
		return
	}
	path := dumpDivergence(t, p, div)
	t.Fatalf("%s: sparse/dense divergence: %s (reproducer: %s)", label, div, path)
}

// TestSparseVsDenseRandomSweep is the random-LP half of the seeded
// 1000-instance differential sweep (the lpmodel half lives in
// internal/lpmodel). Short mode runs a fifth of it.
func TestSparseVsDenseRandomSweep(t *testing.T) {
	instances := 800
	if testing.Short() {
		instances = 160
	}
	rng := rand.New(rand.NewSource(9))
	statuses := map[lp.Status]int{}
	for n := 0; n < instances; n++ {
		p := lp.RandomProblem(rng)
		requireAgreement(t, p, fmt.Sprintf("instance %d", n))
		sol, err := dense.Solve(p, nil)
		if err != nil {
			t.Fatalf("instance %d: %v", n, err)
		}
		statuses[sol.Status]++
	}
	// The sweep is only meaningful if it exercises every verdict.
	for _, s := range []lp.Status{lp.Optimal, lp.Infeasible, lp.Unbounded} {
		if statuses[s] == 0 {
			t.Errorf("sweep never produced status %v (got %v)", s, statuses)
		}
	}
}

// decodeFuzzProblem maps arbitrary fuzz bytes onto an LP and a start
// basis for it. The format is positional so the fuzzer can meaningfully
// mutate it: header (numVars, numRows), then per row sense/rhs/nnz and
// entry pairs, then objective bytes, then the start: a count and that
// many column names in −1..numVars, so out-of-range and duplicate names
// occur. Input that ends before the start (every seed older than the
// start seam) solves cold.
func decodeFuzzProblem(data []byte) (*lp.Problem, []int) {
	if len(data) < 2 {
		return nil, nil
	}
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	numVars := 1 + int(next())%8
	numRows := int(next()) % 10
	p := lp.NewProblem(numVars)
	for i := 0; i < numRows; i++ {
		sense := lp.Sense(int(next()) % 3)
		rhs := float64(int(next())-128) / 8
		nnz := int(next()) % (numVars + 1)
		entries := make([]lp.Entry, 0, nnz)
		for k := 0; k < nnz; k++ {
			v := int(next()) % numVars
			coef := float64(int(next())-128) / 16
			entries = append(entries, lp.Entry{Var: v, Coef: coef})
		}
		p.AddConstraint(entries, sense, rhs)
	}
	for v := 0; v < numVars; v++ {
		p.SetObjective(v, float64(int(next())-128)/16)
	}
	var start []int
	for n := int(next()) % (numVars + 3); n > 0; n-- {
		start = append(start, int(next())%(numVars+2)-1)
	}
	return p, start
}

// FuzzSparseVsDense fuzzes the differential harness; `make slowcheck`
// runs it bounded, and any corpus divergence is a reportable bug.
func FuzzSparseVsDense(f *testing.F) {
	f.Add([]byte{3, 4, 0, 140, 2, 1, 120, 0, 100, 1, 135, 3, 0, 90, 1, 200, 2, 50, 100, 140, 120})
	f.Add([]byte{1, 1, 2, 128, 1, 0, 112, 100})
	f.Add([]byte{5, 0, 200, 200, 200, 90, 90})
	f.Add([]byte{2, 3, 1, 100, 2, 0, 144, 1, 144, 0, 120, 1, 0, 160, 2, 1, 130, 0, 130, 110, 150})
	// twoJobs of solver_test.go, then the start {x0, x2} its guard rejects
	// and the start {x1, x2} it keeps.
	twoJobs := []byte{3, 4, 1, 136, 2, 0, 144, 1, 144, 1, 136, 2, 2, 144, 3, 144, 0, 144, 2, 0, 160, 2, 160,
		0, 168, 4, 0, 160, 1, 160, 2, 160, 3, 160, 128, 160, 128, 176}
	f.Add(append(slices.Clone(twoJobs), 2, 1, 3))
	f.Add(append(slices.Clone(twoJobs), 2, 2, 3))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		buf := make([]byte, 8+rng.Intn(48))
		rng.Read(buf)
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, start := decodeFuzzProblem(data)
		if p == nil {
			return
		}
		if div := compareSparseDense(p, start); div != "" {
			min := minimizeDivergence(p, start)
			out, _ := reproducer(min, div) // best effort: context for the failure message
			t.Fatalf("sparse/dense divergence from start %v, minimized problem:\n%s", start, out)
		}
	})
}

// TestStartNeverChangesTheVerdict sweeps random problems with random
// starts: status and optimum are the cold solve's.
func TestStartNeverChangesTheVerdict(t *testing.T) {
	o := lp.NewObs(obs.NewRegistry())
	lp.SetObs(o)
	defer lp.SetObs(lp.Obs{})
	rng := rand.New(rand.NewSource(31))
	for n := 0; n < 400; n++ {
		p := lp.RandomProblem(rng)
		start := make([]int, rng.Intn(p.NumVars()+2))
		for i := range start {
			start[i] = rng.Intn(p.NumVars()+2) - 1
		}
		if div := compareSparseDense(p, start); div != "" {
			t.Fatalf("instance %d, start %v: %s", n, start, div)
		}
	}
	if o.StartInstalled.Value() == 0 || o.StartDiscarded.Value() == 0 {
		t.Errorf("sweep installed %d columns and discarded %d starts; both outcomes must occur",
			o.StartInstalled.Value(), o.StartDiscarded.Value())
	}
}
