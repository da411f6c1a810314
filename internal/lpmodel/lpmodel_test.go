package lpmodel

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/lp"
	"coflow/internal/matrix"
)

func TestIntervals(t *testing.T) {
	cases := []struct {
		T    int64
		want []int64
	}{
		{1, []int64{0, 1}},
		{2, []int64{0, 1, 2}},
		{3, []int64{0, 1, 2, 4}},
		{4, []int64{0, 1, 2, 4}},
		{5, []int64{0, 1, 2, 4, 8}},
		{0, []int64{0, 1}}, // degenerate horizon clamps to 1
	}
	for _, c := range cases {
		got := Intervals(c.T)
		if len(got) != len(c.want) {
			t.Fatalf("Intervals(%d) = %v, want %v", c.T, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Intervals(%d) = %v, want %v", c.T, got, c.want)
			}
		}
	}
}

func TestIntervalsCoverHorizon(t *testing.T) {
	for _, T := range []int64{1, 7, 100, 12345, 1 << 40} {
		tau := Intervals(T)
		if tau[len(tau)-1] < T {
			t.Fatalf("T=%d: last endpoint %d < T", T, tau[len(tau)-1])
		}
		// L is the smallest such integer: the previous endpoint is < T.
		if len(tau) > 2 && tau[len(tau)-2] >= T {
			t.Fatalf("T=%d: intervals not minimal: %v", T, tau)
		}
	}
}

func TestIntervalIndex(t *testing.T) {
	tau := []int64{0, 1, 2, 4, 8}
	cases := map[int64]int{1: 1, 2: 2, 3: 3, 4: 3, 5: 4, 8: 4, 0: 1, -3: 1}
	for v, want := range cases {
		got, err := IntervalIndex(tau, v)
		if err != nil {
			t.Errorf("IntervalIndex(%d): %v", v, err)
		} else if got != want {
			t.Errorf("IntervalIndex(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestIntervalIndexErrorsBeyondHorizon(t *testing.T) {
	if _, err := IntervalIndex([]int64{0, 1, 2}, 3); err == nil {
		t.Error("no error for value beyond horizon")
	}
}

func TestMustIntervalIndexPanicsBeyondHorizon(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for value beyond horizon")
		}
	}()
	mustIntervalIndex([]int64{0, 1, 2}, 3)
}

func singleCoflowInstance() *coflowmodel.Instance {
	d := matrix.MustFromRows([][]int64{{1, 2}, {2, 1}})
	return &coflowmodel.Instance{
		Ports:   2,
		Coflows: []coflowmodel.Coflow{coflowmodel.FromMatrix(1, 1, 0, d)},
	}
}

func TestIntervalLPSingleCoflow(t *testing.T) {
	sol, err := SolveIntervalLP(singleCoflowInstance())
	if err != nil {
		t.Fatal(err)
	}
	// ρ = 3 → first feasible interval is (2,4], so C̄ = τ_2 = 2.
	if math.Abs(sol.CBar[0]-2) > 1e-9 {
		t.Fatalf("CBar = %g, want 2", sol.CBar[0])
	}
	if math.Abs(sol.LowerBound-2) > 1e-9 {
		t.Fatalf("LowerBound = %g, want 2", sol.LowerBound)
	}
	if len(sol.Order) != 1 || sol.Order[0] != 0 {
		t.Fatalf("Order = %v", sol.Order)
	}
}

func TestIntervalLPRespectsRelease(t *testing.T) {
	ins := singleCoflowInstance()
	ins.Coflows[0].Release = 5
	sol, err := SolveIntervalLP(ins)
	if err != nil {
		t.Fatal(err)
	}
	// r + ρ = 8 → first feasible interval ends at 8 → C̄ = τ = 4.
	if math.Abs(sol.CBar[0]-4) > 1e-9 {
		t.Fatalf("CBar = %g, want 4", sol.CBar[0])
	}
}

func TestIntervalLPOrdering(t *testing.T) {
	// A tiny coflow (load 1) and a huge one (load 40) with equal
	// weights: LP must order the tiny one first.
	tiny := coflowmodel.Coflow{ID: 2, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}}}
	huge := coflowmodel.Coflow{ID: 1, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 40}}}
	ins := &coflowmodel.Instance{Ports: 1, Coflows: []coflowmodel.Coflow{huge, tiny}}
	sol, err := SolveIntervalLP(ins)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Order[0] != 1 || sol.Order[1] != 0 {
		t.Fatalf("Order = %v (CBar %v), want tiny first", sol.Order, sol.CBar)
	}
	if sol.CBar[1] >= sol.CBar[0] {
		t.Fatalf("CBar tiny %g !< CBar huge %g", sol.CBar[1], sol.CBar[0])
	}
}

func TestIntervalLPWeightBreaksTies(t *testing.T) {
	// Same loads, very different weights, shared bottleneck: the heavy
	// coflow should get the earlier LP completion.
	a := coflowmodel.Coflow{ID: 1, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 8}}}
	b := coflowmodel.Coflow{ID: 2, Weight: 100, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 8}}}
	ins := &coflowmodel.Instance{Ports: 1, Coflows: []coflowmodel.Coflow{a, b}}
	sol, err := SolveIntervalLP(ins)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Order[0] != 1 {
		t.Fatalf("heavy coflow not first: order %v, CBar %v", sol.Order, sol.CBar)
	}
}

func TestIntervalLPConvexity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ins := randomInstance(rng, 3, 4, 6)
	sol, err := SolveIntervalLP(ins)
	if err != nil {
		t.Fatal(err)
	}
	for k, xs := range sol.X {
		var sum float64
		for _, x := range xs {
			if x < -1e-9 {
				t.Fatalf("coflow %d has negative x: %v", k, xs)
			}
			sum += x
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("coflow %d x-mass = %g, want 1", k, sum)
		}
	}
}

func TestMaxTotalLoadsAppendixB(t *testing.T) {
	d1 := matrix.MustFromRows([][]int64{
		{9, 0, 9},
		{0, 9, 0},
		{9, 0, 9},
	})
	d2 := matrix.MustFromRows([][]int64{
		{1, 10, 1},
		{10, 1, 10},
		{1, 10, 1},
	})
	ins := &coflowmodel.Instance{Ports: 3, Coflows: []coflowmodel.Coflow{
		coflowmodel.FromMatrix(1, 1, 0, d1),
		coflowmodel.FromMatrix(2, 1, 0, d2),
	}}
	v := MaxTotalLoads(ins, []int{0, 1})
	if v[0] != 18 || v[1] != 30 {
		t.Fatalf("V = %v, want [18 30] (the paper's t1, t2)", v)
	}
}

func TestMaxTotalLoadsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		ins := randomInstance(rng, 2+rng.Intn(4), 1+rng.Intn(6), 8)
		order := rng.Perm(len(ins.Coflows))
		v := MaxTotalLoads(ins, order)
		for i := 1; i < len(v); i++ {
			if v[i] < v[i-1] {
				t.Fatalf("V not monotone: %v", v)
			}
		}
		// Last prefix covers everything: equals ρ of the summed matrix.
		sum := matrix.NewSquare(ins.Ports)
		for k := range ins.Coflows {
			sum.AddMatrix(ins.Coflows[k].Matrix(ins.Ports))
		}
		if len(v) > 0 && v[len(v)-1] != sum.Load() {
			t.Fatalf("V_n = %d, want ρ(ΣD) = %d", v[len(v)-1], sum.Load())
		}
	}
}

// Lemma 3 as proven: with the LP ordering, V_k ≤ (16/3)·C̄_k for every
// k (except the degenerate all-mass-in-interval-one case, where V_k ≤
// τ_1 = 1 regardless).
func TestLemma3Property(t *testing.T) {
	rng := rand.New(rand.NewSource(1618))
	for trial := 0; trial < 40; trial++ {
		ins := randomInstance(rng, 2+rng.Intn(3), 2+rng.Intn(5), 10)
		sol, err := SolveIntervalLP(ins)
		if err != nil {
			t.Fatal(err)
		}
		v := MaxTotalLoads(ins, sol.Order)
		for pos, k := range sol.Order {
			bound := 16.0 / 3.0 * sol.CBar[k]
			if float64(v[pos]) > bound+1e-6 && v[pos] > 1 {
				t.Fatalf("trial %d: V_%d = %d > (16/3)·C̄ = %g", trial, pos, v[pos], bound)
			}
		}
	}
}

func TestTimeIndexedSingleCoflowTight(t *testing.T) {
	sol, err := SolveTimeIndexedLP(singleCoflowInstance())
	if err != nil {
		t.Fatal(err)
	}
	// LP-EXP is tight for a single coflow: LB = ρ = 3.
	if math.Abs(sol.LowerBound-3) > 1e-8 {
		t.Fatalf("LP-EXP bound = %g, want 3", sol.LowerBound)
	}
}

// LP-EXP dominates the interval LP as a lower bound.
func TestTimeIndexedDominatesInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		ins := randomInstance(rng, 2+rng.Intn(2), 1+rng.Intn(4), 6)
		isol, err := SolveIntervalLP(ins)
		if err != nil {
			t.Fatal(err)
		}
		tsol, err := SolveTimeIndexedLP(ins)
		if err != nil {
			t.Fatal(err)
		}
		if tsol.LowerBound < isol.LowerBound-1e-6 {
			t.Fatalf("trial %d: LP-EXP %g < interval LP %g", trial, tsol.LowerBound, isol.LowerBound)
		}
	}
}

func TestTimeIndexedSizeGuard(t *testing.T) {
	// One coflow with a huge demand explodes T; the guard must trip.
	c := coflowmodel.Coflow{ID: 1, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 10_000_000}}}
	ins := &coflowmodel.Instance{Ports: 1, Coflows: []coflowmodel.Coflow{c}}
	if _, err := SolveTimeIndexedLP(ins); err == nil {
		t.Fatal("size guard did not trip")
	}
}

func TestTrivialLowerBound(t *testing.T) {
	ins := singleCoflowInstance()
	if got := TrivialLowerBound(ins); math.Abs(got-3) > 1e-12 {
		t.Fatalf("TrivialLowerBound = %g, want 3", got)
	}
	ins.Coflows[0].Release = 2
	ins.Coflows[0].Weight = 3
	if got := TrivialLowerBound(ins); math.Abs(got-15) > 1e-12 {
		t.Fatalf("TrivialLowerBound = %g, want 15", got)
	}
}

func TestEmptyInstanceRejected(t *testing.T) {
	ins := &coflowmodel.Instance{Ports: 2}
	if _, err := SolveIntervalLP(ins); err == nil {
		t.Fatal("empty instance accepted by interval LP")
	}
	if _, err := SolveTimeIndexedLP(ins); err == nil {
		t.Fatal("empty instance accepted by LP-EXP")
	}
}

func TestOrderByCBarTieBreak(t *testing.T) {
	ins := &coflowmodel.Instance{Ports: 1, Coflows: []coflowmodel.Coflow{
		{ID: 9, Weight: 1}, {ID: 3, Weight: 1},
	}}
	order := OrderByCBar(ins, []float64{5, 5})
	if order[0] != 1 || order[1] != 0 {
		t.Fatalf("tie break by ID failed: %v", order)
	}
}

// randomInstance builds a random valid instance with n coflows on an
// m-port switch, flow sizes in [1, maxSize].
func randomInstance(rng *rand.Rand, m, n int, maxSize int64) *coflowmodel.Instance {
	ins := &coflowmodel.Instance{Ports: m}
	for k := 0; k < n; k++ {
		c := coflowmodel.Coflow{ID: k + 1, Weight: 1 + float64(rng.Intn(5))}
		flows := 1 + rng.Intn(m*m)
		for f := 0; f < flows; f++ {
			c.Flows = append(c.Flows, coflowmodel.Flow{
				Src:  rng.Intn(m),
				Dst:  rng.Intn(m),
				Size: 1 + rng.Int63n(maxSize),
			})
		}
		ins.Coflows = append(ins.Coflows, c)
	}
	return ins
}

func TestAlphaPointsSingleCoflow(t *testing.T) {
	sol, err := SolveIntervalLP(singleCoflowInstance())
	if err != nil {
		t.Fatal(err)
	}
	// All mass sits in one interval, so every α gives its left endpoint.
	for _, alpha := range []float64{0.1, 0.5, 1.0} {
		pts, err := sol.AlphaPoints(alpha)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pts[0]-2) > 1e-9 {
			t.Fatalf("alpha=%g: point %g, want 2", alpha, pts[0])
		}
	}
}

func TestAlphaPointsMonotoneInAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 20; trial++ {
		ins := randomInstance(rng, 2+rng.Intn(3), 2+rng.Intn(5), 10)
		sol, err := SolveIntervalLP(ins)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := sol.AlphaPoints(0.25)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := sol.AlphaPoints(0.95)
		if err != nil {
			t.Fatal(err)
		}
		for k := range lo {
			if lo[k] > hi[k]+1e-9 {
				t.Fatalf("trial %d coflow %d: α-points not monotone (%g > %g)",
					trial, k, lo[k], hi[k])
			}
		}
	}
}

func TestAlphaPointsRejectBadAlpha(t *testing.T) {
	sol, err := SolveIntervalLP(singleCoflowInstance())
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0, -1, 1.5} {
		if _, err := sol.AlphaPoints(alpha); err == nil {
			t.Errorf("alpha=%g accepted", alpha)
		}
	}
}

func TestOrderByAlphaPointsIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	ins := randomInstance(rng, 3, 6, 8)
	sol, err := SolveIntervalLP(ins)
	if err != nil {
		t.Fatal(err)
	}
	order, err := sol.OrderByAlphaPoints(ins, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(order))
	for _, k := range order {
		if k < 0 || k >= len(order) || seen[k] {
			t.Fatalf("not a permutation: %v", order)
		}
		seen[k] = true
	}
}

func TestWriteIntervalLPMPS(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteIntervalLPMPS(&buf, singleCoflowInstance(), "fig1"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"NAME", "ROWS", "COLUMNS", "RHS", "ENDATA"} {
		if !strings.Contains(out, want) {
			t.Fatalf("MPS output missing %q:\n%s", want, out)
		}
	}
	// The exported program must solve to the same lower bound.
	prob, err := lp.ReadMPS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := lp.Solve(prob)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveIntervalLP(singleCoflowInstance())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-want.LowerBound) > 1e-9 {
		t.Fatalf("MPS round trip changed the bound: %g vs %g", sol.Objective, want.LowerBound)
	}
	if err := WriteIntervalLPMPS(&buf, &coflowmodel.Instance{Ports: 1}, "x"); err == nil {
		t.Fatal("empty instance accepted")
	}
}
