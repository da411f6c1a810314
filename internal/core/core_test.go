package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"coflow/internal/check"
	"coflow/internal/coflowmodel"
	"coflow/internal/matrix"
)

func randomInstance(rng *rand.Rand, m, n int, maxSize, maxRelease int64) *coflowmodel.Instance {
	ins := &coflowmodel.Instance{Ports: m}
	for k := 0; k < n; k++ {
		c := coflowmodel.Coflow{ID: k + 1, Weight: 1 + float64(rng.Intn(9))}
		if maxRelease > 0 {
			c.Release = rng.Int63n(maxRelease + 1)
		}
		flows := 1 + rng.Intn(m*m)
		for f := 0; f < flows; f++ {
			c.Flows = append(c.Flows, coflowmodel.Flow{
				Src: rng.Intn(m), Dst: rng.Intn(m), Size: 1 + rng.Int63n(maxSize),
			})
		}
		ins.Coflows = append(ins.Coflows, c)
	}
	return ins
}

func TestOptionLabels(t *testing.T) {
	cases := map[string]Options{
		"HA(a)":   {Ordering: OrderArrival},
		"HA(b)":   {Ordering: OrderArrival, Backfill: true},
		"Hrho(c)": {Ordering: OrderLoadWeight, Grouping: true},
		"HLP(d)":  {Ordering: OrderLP, Grouping: true, Backfill: true},
	}
	for want, opts := range cases {
		if got := opts.Label(); got != want {
			t.Errorf("Label = %q, want %q", got, want)
		}
	}
}

func TestAllOptionsEnumerates12(t *testing.T) {
	opts := AllOptions()
	if len(opts) != 12 {
		t.Fatalf("AllOptions returned %d combos, want 12", len(opts))
	}
	seen := map[string]bool{}
	for _, o := range opts {
		if seen[o.Label()] {
			t.Fatalf("duplicate combo %s", o.Label())
		}
		seen[o.Label()] = true
	}
}

func TestAlgorithm2SingleCoflow(t *testing.T) {
	d := matrix.MustFromRows([][]int64{{1, 2}, {2, 1}})
	ins := &coflowmodel.Instance{Ports: 2, Coflows: []coflowmodel.Coflow{
		coflowmodel.FromMatrix(1, 1, 0, d),
	}}
	res, err := Algorithm2(ins)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[0] != 3 {
		t.Fatalf("completion = %d, want ρ = 3", res.Completion[0])
	}
	if len(res.Stages) != 1 {
		t.Fatalf("stages = %v", res.Stages)
	}
	if res.LP == nil {
		t.Fatal("LP solution missing from Algorithm 2 result")
	}
}

func TestLoadWeightOrder(t *testing.T) {
	// Loads 4, 2, 4 with weights 1, 1, 4: keys 4, 2, 1 → order 2,1,0.
	mk := func(id int, w float64, size int64) coflowmodel.Coflow {
		return coflowmodel.Coflow{ID: id, Weight: w,
			Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: size}}}
	}
	ins := &coflowmodel.Instance{Ports: 1, Coflows: []coflowmodel.Coflow{
		mk(1, 1, 4), mk(2, 1, 2), mk(3, 4, 4),
	}}
	order := LoadWeightOrder(ins)
	want := []int{2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestLoadWeightOrderTieBreaksByID(t *testing.T) {
	mk := func(id int) coflowmodel.Coflow {
		return coflowmodel.Coflow{ID: id, Weight: 1,
			Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 3}}}
	}
	ins := &coflowmodel.Instance{Ports: 1, Coflows: []coflowmodel.Coflow{mk(5), mk(2), mk(9)}}
	order := LoadWeightOrder(ins)
	if ins.Coflows[order[0]].ID != 2 || ins.Coflows[order[1]].ID != 5 || ins.Coflows[order[2]].ID != 9 {
		t.Fatalf("tie break wrong: %v", order)
	}
}

func TestGeometricStages(t *testing.T) {
	v := []int64{1, 2, 3, 4, 8, 9}
	stages := GeometricStages(v)
	// geomIndex: 1→1, 2→2, 3→3, 4→3, 8→4, 9→5.
	wantBounds := [][2]int{{0, 1}, {1, 2}, {2, 4}, {4, 5}, {5, 6}}
	if len(stages) != len(wantBounds) {
		t.Fatalf("stages = %v, want %v", stages, wantBounds)
	}
	for i, wb := range wantBounds {
		if stages[i].Start != wb[0] || stages[i].End != wb[1] {
			t.Fatalf("stages = %v, want %v", stages, wantBounds)
		}
	}
}

func TestGeomIndex(t *testing.T) {
	cases := map[int64]int{0: 1, 1: 1, 2: 2, 3: 3, 4: 3, 5: 4, 8: 4, 9: 5, 16: 5, 17: 6}
	for v, want := range cases {
		if got := geomIndex(v); got != want {
			t.Errorf("geomIndex(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestRandIndexMatchesDefinition(t *testing.T) {
	// τ′_l = t0·a^(l−1); randIndex(v) must be the smallest l with
	// v ≤ τ′_l.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		t0 := 1 + rng.Float64()*(RandomizedAlpha-1)
		v := rng.Int63n(1000) + 1
		l := randIndex(v, t0)
		tau := func(l int) float64 { return t0 * math.Pow(RandomizedAlpha, float64(l-1)) }
		if float64(v) > tau(l) {
			t.Fatalf("v=%d t0=%g: τ′_%d = %g < v", v, t0, l, tau(l))
		}
		if l > 1 && float64(v) <= tau(l-1) {
			t.Fatalf("v=%d t0=%g: l=%d not minimal", v, t0, l)
		}
	}
}

// Proposition 1: Algorithm 2 completions obey C_k ≤ wait + 4·V_k.
func TestProposition1Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 30; trial++ {
		ins := randomInstance(rng, 2+rng.Intn(3), 2+rng.Intn(6), 10, 15)
		res, err := Algorithm2(ins)
		if err != nil {
			t.Fatal(err)
		}
		bound := Proposition1Bound(ins, res.Order, res.Stages, res.V)
		for pos, k := range res.Order {
			if res.Completion[k] > bound[pos] {
				t.Fatalf("trial %d: C_%d = %d > bound %d (V=%d)",
					trial, pos, res.Completion[k], bound[pos], res.V[pos])
			}
		}
	}
}

// Corollary 1 setting: all releases zero → C_k ≤ 4·V_k.
func TestProposition1ZeroRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 30; trial++ {
		ins := randomInstance(rng, 2+rng.Intn(3), 2+rng.Intn(6), 10, 0)
		res, err := Algorithm2(ins)
		if err != nil {
			t.Fatal(err)
		}
		for pos, k := range res.Order {
			if res.Completion[k] > 4*res.V[pos] {
				t.Fatalf("trial %d: C = %d > 4·V = %d", trial, res.Completion[k], 4*res.V[pos])
			}
		}
	}
}

// Theorem 1 surrogate, fully measurable: with zero releases, per
// coflow C_k(A) ≤ 4·V_k ≤ (64/3)·C̄_k (modulo the V_k ≤ 1 corner), so
// the total is within 67/3 of the LP lower bound contribution.
func TestTheorem1PerCoflowSurrogate(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for trial := 0; trial < 20; trial++ {
		ins := randomInstance(rng, 2+rng.Intn(3), 2+rng.Intn(5), 8, 0)
		res, err := Algorithm2(ins)
		if err != nil {
			t.Fatal(err)
		}
		for pos, k := range res.Order {
			limit := DeterministicRatioZeroRelease*res.LP.CBar[k] + 4 // +4 covers V_k ≤ 1 corner
			if float64(res.Completion[k]) > limit+1e-6 {
				t.Fatalf("trial %d pos %d: C = %d > (64/3)·C̄+4 = %g",
					trial, pos, res.Completion[k], limit)
			}
		}
	}
}

func TestRandomizedStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ins := randomInstance(rng, 3, 6, 10, 0)
	res, err := Randomized(ins, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Stages partition all positions.
	covered := 0
	for _, st := range res.Stages {
		covered += st.End - st.Start
	}
	if covered != len(ins.Coflows) {
		t.Fatalf("stages cover %d of %d", covered, len(ins.Coflows))
	}
}

func TestRandomizedDeterministicGivenSeed(t *testing.T) {
	base := rand.New(rand.NewSource(7))
	ins := randomInstance(base, 3, 5, 8, 0)
	r1, err := Randomized(ins, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Randomized(ins, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	for k := range r1.Completion {
		if r1.Completion[k] != r2.Completion[k] {
			t.Fatal("randomized schedule not reproducible for fixed seed")
		}
	}
}

// Proposition 2: E[C_k] ≤ (3/2+√2)·V_k with zero releases. Checked
// empirically over many draws with 10% slack for sampling noise.
func TestProposition2Expectation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ins := randomInstance(rng, 3, 6, 10, 0)
	const draws = 400
	var sum []float64
	var res *Result
	for d := 0; d < draws; d++ {
		r, err := Randomized(ins, rand.New(rand.NewSource(int64(d))))
		if err != nil {
			t.Fatal(err)
		}
		if sum == nil {
			sum = make([]float64, len(r.Completion))
		}
		for k, c := range r.Completion {
			sum[k] += float64(c)
		}
		res = r
	}
	factor := 1.5 + math.Sqrt2
	for pos, k := range res.Order {
		mean := sum[k] / draws
		bound := factor * float64(res.V[pos])
		if mean > bound*1.10+1 {
			t.Fatalf("pos %d: empirical E[C] = %g > (3/2+√2)·V = %g", pos, mean, bound)
		}
	}
}

// Every paper combination must run and serve all demand; grouping and
// backfilling must never lose coflows.
func TestAllCombinationsRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ins := randomInstance(rng, 4, 8, 10, 0)
	for _, opts := range AllOptions() {
		res, err := Schedule(ins, opts)
		if err != nil {
			t.Fatalf("%s: %v", opts.Label(), err)
		}
		if len(res.Completion) != len(ins.Coflows) {
			t.Fatalf("%s: %d completions", opts.Label(), len(res.Completion))
		}
		for k, c := range res.Completion {
			if c < ins.Coflows[k].Load(ins.Ports) {
				t.Fatalf("%s: coflow %d completes at %d < its own load", opts.Label(), k, c)
			}
		}
	}
}

// Grouping should generally help; assert the paper's qualitative
// finding on average (not per-instance, where ties happen).
func TestGroupingHelpsOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var withG, withoutG float64
	for trial := 0; trial < 15; trial++ {
		ins := randomInstance(rng, 4, 10, 10, 0)
		a, err := Schedule(ins, Options{Ordering: OrderLoadWeight})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Schedule(ins, Options{Ordering: OrderLoadWeight, Grouping: true})
		if err != nil {
			t.Fatal(err)
		}
		withoutG += a.TotalWeighted
		withG += b.TotalWeighted
	}
	if withG > withoutG {
		t.Fatalf("grouping hurt on average: %g > %g", withG, withoutG)
	}
}

func TestOrderingString(t *testing.T) {
	if OrderArrival.String() != "HA" || OrderLoadWeight.String() != "Hrho" || OrderLP.String() != "HLP" {
		t.Fatal("Ordering.String broken")
	}
}

// Order is the one dispatch over Ordering: every ordering yields a
// permutation, only H_LP comes with its LP solution (whose order it
// is), and an unknown ordering is an error.
func TestOrder(t *testing.T) {
	ins := randomInstance(rand.New(rand.NewSource(707)), 4, 7, 8, 3)
	for _, o := range []Ordering{OrderArrival, OrderLoadWeight, OrderLP} {
		order, sol, err := Order(ins, o)
		if err != nil {
			t.Fatalf("%v: %v", o, err)
		}
		seen := make([]bool, len(ins.Coflows))
		for _, k := range order {
			seen[k] = true
		}
		if len(order) != len(ins.Coflows) || slices.Contains(seen, false) {
			t.Fatalf("%v: order %v is not a permutation of %d coflows", o, order, len(ins.Coflows))
		}
		if (sol != nil) != (o == OrderLP) || sol != nil && !slices.Equal(sol.Order, order) {
			t.Fatalf("%v: LP solution %v returned with order %v", o, sol, order)
		}
	}
	if _, _, err := Order(ins, Ordering(9)); err == nil {
		t.Fatal("unknown ordering accepted")
	}
}

func TestExecuteOrderedRecordedMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	ins := randomInstance(rng, 4, 6, 8, 0)
	order := LoadWeightOrder(ins)
	opts := Options{Grouping: true, Backfill: true}
	plain, err := ExecuteOrdered(ins, order, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, tr, err := ExecuteOrderedRecorded(ins, order, opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := range plain.Completion {
		if plain.Completion[k] != rec.Completion[k] {
			t.Fatalf("recorded completions diverge at %d: %d vs %d",
				k, rec.Completion[k], plain.Completion[k])
		}
	}
	if vs := check.Schedule(ins, check.FromTranscript(tr, rec.Result)); vs != nil {
		t.Fatalf("%d violations, first: %v", len(vs), vs[0])
	}
}

// testing/quick property: GeometricStages partitions any nondecreasing
// load vector into consecutive runs whose members share a geometric
// interval, and distinct stages use distinct intervals.
func TestGeometricStagesPartitionQuick(t *testing.T) {
	f := func(deltas []uint8) bool {
		v := make([]int64, len(deltas))
		var cur int64
		for i, d := range deltas {
			cur += int64(d)
			v[i] = cur
		}
		stages := GeometricStages(v)
		covered := 0
		prevIdx := -1
		for _, st := range stages {
			if st.Start != covered || st.End <= st.Start {
				return false
			}
			covered = st.End
			idx := geomIndex(v[st.Start])
			if idx == prevIdx {
				return false // adjacent stages must differ
			}
			prevIdx = idx
			for pos := st.Start; pos < st.End; pos++ {
				if geomIndex(v[pos]) != idx {
					return false
				}
			}
		}
		return covered == len(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// testing/quick property: randomized stages are a valid partition for
// every t0 in [1, a).
func TestRandomGeometricStagesPartitionQuick(t *testing.T) {
	f := func(deltas []uint8, t0frac float64) bool {
		if t0frac < 0 {
			t0frac = -t0frac
		}
		t0frac -= math.Floor(t0frac)
		t0 := 1 + t0frac*(RandomizedAlpha-1)
		v := make([]int64, len(deltas))
		var cur int64
		for i, d := range deltas {
			cur += int64(d)
			v[i] = cur
		}
		stages := RandomGeometricStages(v, t0)
		covered := 0
		for _, st := range stages {
			if st.Start != covered || st.End <= st.Start {
				return false
			}
			covered = st.End
		}
		return covered == len(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
