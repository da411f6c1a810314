package lp_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"coflow/internal/lp"
	"coflow/internal/lp/dense"
)

// requireSameProblem asserts q is p index for index: the same variable
// count, objective, and per row the same sense, rhs and (coalesced)
// coefficient of every variable.
func requireSameProblem(t *testing.T, label string, p, q *lp.Problem) {
	t.Helper()
	if q.NumVars() != p.NumVars() || q.NumConstraints() != p.NumConstraints() {
		t.Fatalf("%s: round trip read %d vars × %d rows, wrote %d × %d",
			label, q.NumVars(), q.NumConstraints(), p.NumVars(), p.NumConstraints())
	}
	for v := 0; v < p.NumVars(); v++ {
		if q.Cost(v) != p.Cost(v) {
			t.Fatalf("%s: cost of x%d %g, wrote %g", label, v, q.Cost(v), p.Cost(v))
		}
	}
	coalesce := func(entries []lp.Entry) []float64 {
		out := make([]float64, p.NumVars())
		for _, e := range entries {
			out[e.Var] += e.Coef
		}
		return out
	}
	for i := 0; i < p.NumConstraints(); i++ {
		want, wantSense, wantRHS := p.Row(i)
		got, sense, rhs := q.Row(i)
		if sense != wantSense || rhs != wantRHS || !slices.Equal(coalesce(got), coalesce(want)) {
			t.Fatalf("%s: row %d read %v %v %g, wrote %v %v %g",
				label, i, coalesce(got), sense, rhs, coalesce(want), wantSense, wantRHS)
		}
	}
}

func TestMPSRoundTripSmall(t *testing.T) {
	classic := lp.NewProblem(2)
	classic.SetObjective(0, -3)
	classic.SetObjective(1, -5)
	classic.AddConstraint([]lp.Entry{{0, 1}}, lp.LE, 4)
	classic.AddConstraint([]lp.Entry{{1, 2}}, lp.LE, 12)
	classic.AddConstraint([]lp.Entry{{0, 3}, {1, 2}}, lp.LE, 18)

	// x1 has no cost and sits in no row; it must still be declared, or
	// x2 reads back as x1.
	unused := lp.NewProblem(3)
	unused.SetObjective(0, -3)
	unused.SetObjective(2, -5)
	unused.AddConstraint([]lp.Entry{{0, 1}}, lp.LE, 4)
	unused.AddConstraint([]lp.Entry{{0, 3}, {2, 2}}, lp.LE, 18)

	for name, p := range map[string]*lp.Problem{"classic": classic, "unused middle column": unused} {
		var buf bytes.Buffer
		if err := lp.WriteMPS(&buf, p, "small"); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{"NAME", "ROWS", "COLUMNS", "RHS", "ENDATA", "COST"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s: MPS output missing %q:\n%s", name, want, out)
			}
		}

		q, err := lp.ReadMPS(&buf)
		if err != nil {
			t.Fatal(err)
		}
		requireSameProblem(t, name, p, q)
		solP, err := dense.Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		solQ, err := dense.Solve(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if solP.Status != lp.Optimal || solQ.Status != lp.Optimal {
			t.Fatalf("%s: statuses %v/%v", name, solP.Status, solQ.Status)
		}
		if math.Abs(solP.Objective-solQ.Objective) > 1e-9 {
			t.Fatalf("%s: round trip changed optimum: %g vs %g", name, solP.Objective, solQ.Objective)
		}
	}
}

func TestMPSRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for trial := 0; trial < 50; trial++ {
		nVars := 1 + rng.Intn(5)
		p := lp.NewProblem(nVars)
		for j := 0; j < nVars; j++ {
			p.SetObjective(j, float64(rng.Intn(11)-5))
		}
		for r := 0; r < 1+rng.Intn(5); r++ {
			var es []lp.Entry
			for j := 0; j < nVars; j++ {
				if rng.Intn(2) == 0 {
					es = append(es, lp.Entry{j, float64(rng.Intn(9) - 4)})
				}
			}
			sense := []lp.Sense{lp.LE, lp.GE, lp.EQ}[rng.Intn(3)]
			p.AddConstraint(es, sense, float64(rng.Intn(15)))
		}
		// Bound everything so the LP is never unbounded.
		var all []lp.Entry
		for j := 0; j < nVars; j++ {
			all = append(all, lp.Entry{j, 1})
		}
		p.AddConstraint(all, lp.LE, 50)

		// Through the differential harness's reproducer format: MPS
		// under a (here two-line) comment block.
		data, err := reproducer(p, "status mismatch\nsecond line")
		if err != nil {
			t.Fatal(err)
		}
		q, err := lp.ReadMPS(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, data)
		}
		requireSameProblem(t, fmt.Sprintf("trial %d", trial), p, q)
		solP, err := dense.Solve(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		solQ, err := dense.Solve(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if solP.Status != solQ.Status {
			t.Fatalf("trial %d: statuses differ %v vs %v", trial, solP.Status, solQ.Status)
		}
		if solP.Status == lp.Optimal && math.Abs(solP.Objective-solQ.Objective) > 1e-6*(1+math.Abs(solP.Objective)) {
			t.Fatalf("trial %d: optima differ %g vs %g", trial, solP.Objective, solQ.Objective)
		}
	}
}

func TestReadMPSErrors(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"no vars":     "NAME x\nROWS\n N COST\nENDATA\n",
		"bad row":     "NAME x\nROWS\n Q r1\nENDATA\n",
		"unknown row": "NAME x\nROWS\n N COST\nCOLUMNS\n    x0 nope 1\nENDATA\n",
		"bad coef":    "NAME x\nROWS\n N COST\n L r1\nCOLUMNS\n    x0 r1 zz\nENDATA\n",
		"bounds":      "NAME x\nROWS\n N COST\nBOUNDS\n UP BND x0 3\nENDATA\n",
		"bad section": "NAME x\nWEIRD\n junk\nENDATA\n",
		"ragged line": "NAME x\nROWS\n N COST\n L r1\nCOLUMNS\n    x0 r1\nENDATA\n",
	}
	for name, in := range cases {
		if _, err := lp.ReadMPS(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteMPSNil(t *testing.T) {
	var buf bytes.Buffer
	if err := lp.WriteMPS(&buf, nil, "x"); err == nil {
		t.Fatal("nil problem accepted")
	}
}

// TestMPSRoundTripPresolved proves presolved problems survive the MPS
// writer/reader with the same optimum: the reduced problem is pure
// x ≥ 0 standard form (bounds re-emitted as rows), which is exactly
// the subset mps.go speaks.
func TestMPSRoundTripPresolved(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rounds := 0
	for n := 0; n < 1500 && rounds < 25; n++ {
		p := lp.RandomProblem(rng)
		ps, err := lp.Presolve(p)
		if err != nil {
			t.Fatalf("instance %d: presolve: %v", n, err)
		}
		if ps.Decided() {
			continue
		}
		red := ps.Reduced()
		before, err := dense.Solve(red, nil)
		if err != nil {
			t.Fatalf("instance %d: solve reduced: %v", n, err)
		}
		if before.Status != lp.Optimal {
			continue
		}
		rounds++
		var buf bytes.Buffer
		if err := lp.WriteMPS(&buf, red, "presolved"); err != nil {
			t.Fatalf("instance %d: write MPS: %v", n, err)
		}
		back, err := lp.ReadMPS(&buf)
		if err != nil {
			t.Fatalf("instance %d: read MPS: %v", n, err)
		}
		after, err := dense.Solve(back, nil)
		if err != nil {
			t.Fatalf("instance %d: solve re-read: %v", n, err)
		}
		if after.Status != lp.Optimal {
			t.Fatalf("instance %d: re-read status = %v, want optimal", n, after.Status)
		}
		if diff := math.Abs(after.Objective - before.Objective); diff > 1e-6*(1+math.Abs(before.Objective)) {
			t.Fatalf("instance %d: MPS round trip moved the optimum: %.12g -> %.12g",
				n, before.Objective, after.Objective)
		}
	}
	if rounds < 8 {
		t.Fatalf("only %d round-trippable instances generated; generator drifted", rounds)
	}
}
