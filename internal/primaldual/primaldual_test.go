package primaldual

import (
	"math/rand"
	"sort"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/core"
	"coflow/internal/openshop"
)

func singleMachine(sizes []int64, weights []float64) *coflowmodel.Instance {
	ins := &coflowmodel.Instance{Ports: 1}
	for k := range sizes {
		ins.Coflows = append(ins.Coflows, coflowmodel.Coflow{
			ID: k + 1, Weight: weights[k],
			Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: sizes[k]}},
		})
	}
	return ins
}

// On a single machine the rule must reduce to Smith's WSPT order.
func TestSingleMachineIsWSPT(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		sizes := make([]int64, n)
		weights := make([]float64, n)
		for k := range sizes {
			sizes[k] = 1 + rng.Int63n(20)
			weights[k] = float64(1 + rng.Intn(10))
		}
		ins := singleMachine(sizes, weights)
		got := Order(ins)

		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool {
			ra := float64(sizes[want[a]]) / weights[want[a]]
			rb := float64(sizes[want[b]]) / weights[want[b]]
			if ra != rb {
				return ra < rb
			}
			return want[a] < want[b]
		})
		// Compare resulting schedules (ties can permute legally).
		gotTotal := wsptTotal(sizes, weights, got)
		wantTotal := wsptTotal(sizes, weights, want)
		if gotTotal != wantTotal {
			t.Fatalf("trial %d: PD total %g != WSPT total %g (sizes %v weights %v)",
				trial, gotTotal, wantTotal, sizes, weights)
		}
	}
}

func wsptTotal(sizes []int64, weights []float64, order []int) float64 {
	var t int64
	var total float64
	for _, k := range order {
		t += sizes[k]
		total += weights[k] * float64(t)
	}
	return total
}

// On diagonal instances (concurrent open shop, zero releases) the
// published rule is a 2-approximation. This rule omits its weight
// update, so the factor 2 is checked here against the exact best
// permutation, not proven.
func TestTwoApproxOnOpenShop(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		machines := 1 + rng.Intn(3)
		jobs := 1 + rng.Intn(6)
		shop := &openshop.Instance{Machines: machines}
		for k := 0; k < jobs; k++ {
			j := openshop.Job{ID: k + 1, Weight: float64(1 + rng.Intn(5)),
				Proc: make([]int64, machines)}
			for i := range j.Proc {
				j.Proc[i] = rng.Int63n(9)
			}
			hasWork := false
			for _, p := range j.Proc {
				if p > 0 {
					hasWork = true
				}
			}
			if !hasWork {
				j.Proc[0] = 1
			}
			shop.Jobs = append(shop.Jobs, j)
		}
		_, _, opt, err := openshop.BestPermutation(shop)
		if err != nil {
			t.Fatal(err)
		}
		order := Order(shop.ToCoflowInstance())
		comp, err := openshop.ScheduleByOrder(shop, order)
		if err != nil {
			t.Fatal(err)
		}
		got := shop.TotalWeighted(comp)
		if got > 2*opt+1e-9 {
			t.Fatalf("trial %d: PD total %g exceeds 2·OPT = %g", trial, got, 2*opt)
		}
	}
}

func TestOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(5)
		n := 1 + rng.Intn(8)
		ins := &coflowmodel.Instance{Ports: m}
		for k := 0; k < n; k++ {
			c := coflowmodel.Coflow{ID: k + 1, Weight: 1 + float64(rng.Intn(4))}
			if rng.Intn(5) > 0 { // some coflows stay empty
				for f := 0; f < 1+rng.Intn(4); f++ {
					c.Flows = append(c.Flows, coflowmodel.Flow{
						Src: rng.Intn(m), Dst: rng.Intn(m), Size: 1 + rng.Int63n(5),
					})
				}
			}
			ins.Coflows = append(ins.Coflows, c)
		}
		order := Order(ins)
		seen := make([]bool, n)
		for _, k := range order {
			if k < 0 || k >= n || seen[k] {
				t.Fatalf("trial %d: not a permutation: %v", trial, order)
			}
			seen[k] = true
		}
	}
}

func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ins := &coflowmodel.Instance{Ports: 3}
	for k := 0; k < 6; k++ {
		c := coflowmodel.Coflow{ID: k + 1, Weight: 1}
		for f := 0; f < 3; f++ {
			c.Flows = append(c.Flows, coflowmodel.Flow{
				Src: rng.Intn(3), Dst: rng.Intn(3), Size: 1 + rng.Int63n(5),
			})
		}
		ins.Coflows = append(ins.Coflows, c)
	}
	a := Order(ins)
	b := Order(ins)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("order not deterministic")
		}
	}
}

// The PD ordering should be competitive with H_rho when executed with
// the same scheduling stage.
func TestCompetitiveWithLoadWeightOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var pd, hrho float64
	for trial := 0; trial < 15; trial++ {
		ins := &coflowmodel.Instance{Ports: 5}
		for k := 0; k < 10; k++ {
			c := coflowmodel.Coflow{ID: k + 1, Weight: 1 + float64(rng.Intn(9))}
			for f := 0; f < 1+rng.Intn(10); f++ {
				c.Flows = append(c.Flows, coflowmodel.Flow{
					Src: rng.Intn(5), Dst: rng.Intn(5), Size: 1 + rng.Int63n(9),
				})
			}
			ins.Coflows = append(ins.Coflows, c)
		}
		opts := core.Options{Grouping: true, Backfill: true}
		pdRes, err := core.ExecuteOrdered(ins, Order(ins), opts)
		if err != nil {
			t.Fatal(err)
		}
		hrRes, err := core.ExecuteOrdered(ins, core.LoadWeightOrder(ins), opts)
		if err != nil {
			t.Fatal(err)
		}
		pd += pdRes.TotalWeighted
		hrho += hrRes.TotalWeighted
	}
	if pd > hrho*1.2 {
		t.Fatalf("primal-dual ordering uncompetitive: %g vs Hrho %g", pd, hrho)
	}
}
