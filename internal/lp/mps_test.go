package lp

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// requireSameProblem asserts q is p index for index: the same variable
// count, objective, and per row the same sense, rhs and (coalesced)
// coefficient of every variable.
func requireSameProblem(t *testing.T, label string, p, q *Problem) {
	t.Helper()
	if q.NumVars() != p.NumVars() || q.NumConstraints() != p.NumConstraints() {
		t.Fatalf("%s: round trip read %d vars × %d rows, wrote %d × %d",
			label, q.NumVars(), q.NumConstraints(), p.NumVars(), p.NumConstraints())
	}
	if !slices.Equal(q.obj, p.obj) {
		t.Fatalf("%s: objective %v, wrote %v", label, q.obj, p.obj)
	}
	dense := func(r row) []float64 {
		out := make([]float64, p.NumVars())
		for _, e := range r.entries {
			out[e.Var] += e.Coef
		}
		return out
	}
	for i, r := range p.rows {
		got := q.rows[i]
		if got.sense != r.sense || got.rhs != r.rhs || !slices.Equal(dense(got), dense(r)) {
			t.Fatalf("%s: row %d read %v %v %g, wrote %v %v %g",
				label, i, dense(got), got.sense, got.rhs, dense(r), r.sense, r.rhs)
		}
	}
}

func TestMPSRoundTripSmall(t *testing.T) {
	classic := NewProblem(2)
	classic.SetObjective(0, -3)
	classic.SetObjective(1, -5)
	classic.AddConstraint([]Entry{{0, 1}}, LE, 4)
	classic.AddConstraint([]Entry{{1, 2}}, LE, 12)
	classic.AddConstraint([]Entry{{0, 3}, {1, 2}}, LE, 18)

	// x1 has no cost and sits in no row; it must still be declared, or
	// x2 reads back as x1.
	unused := NewProblem(3)
	unused.SetObjective(0, -3)
	unused.SetObjective(2, -5)
	unused.AddConstraint([]Entry{{0, 1}}, LE, 4)
	unused.AddConstraint([]Entry{{0, 3}, {2, 2}}, LE, 18)

	for name, p := range map[string]*Problem{"classic": classic, "unused middle column": unused} {
		var buf bytes.Buffer
		if err := WriteMPS(&buf, p, "small"); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		for _, want := range []string{"NAME", "ROWS", "COLUMNS", "RHS", "ENDATA", "COST"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s: MPS output missing %q:\n%s", name, want, out)
			}
		}

		q, err := ReadMPS(&buf)
		if err != nil {
			t.Fatal(err)
		}
		requireSameProblem(t, name, p, q)
		solP, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		solQ, err := Solve(q)
		if err != nil {
			t.Fatal(err)
		}
		if solP.Status != Optimal || solQ.Status != Optimal {
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
		p := NewProblem(nVars)
		for j := 0; j < nVars; j++ {
			p.SetObjective(j, float64(rng.Intn(11)-5))
		}
		for r := 0; r < 1+rng.Intn(5); r++ {
			var es []Entry
			for j := 0; j < nVars; j++ {
				if rng.Intn(2) == 0 {
					es = append(es, Entry{j, float64(rng.Intn(9) - 4)})
				}
			}
			sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
			p.AddConstraint(es, sense, float64(rng.Intn(15)))
		}
		// Bound everything so the LP is never unbounded.
		var all []Entry
		for j := 0; j < nVars; j++ {
			all = append(all, Entry{j, 1})
		}
		p.AddConstraint(all, LE, 50)

		// Through the differential harness's reproducer format: MPS
		// under a (here two-line) comment block.
		data, err := reproducer(p, "status mismatch\nsecond line")
		if err != nil {
			t.Fatal(err)
		}
		q, err := ReadMPS(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, data)
		}
		requireSameProblem(t, fmt.Sprintf("trial %d", trial), p, q)
		solP, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		solQ, err := Solve(q)
		if err != nil {
			t.Fatal(err)
		}
		if solP.Status != solQ.Status {
			t.Fatalf("trial %d: statuses differ %v vs %v", trial, solP.Status, solQ.Status)
		}
		if solP.Status == Optimal && math.Abs(solP.Objective-solQ.Objective) > 1e-6*(1+math.Abs(solP.Objective)) {
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
		if _, err := ReadMPS(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestWriteMPSNil(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMPS(&buf, nil, "x"); err == nil {
		t.Fatal("nil problem accepted")
	}
}
