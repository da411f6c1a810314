package varys

import (
	"math"
	"math/rand"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/core"
	"coflow/internal/matrix"
)

func inst(ports int, coflows ...coflowmodel.Coflow) *coflowmodel.Instance {
	return &coflowmodel.Instance{Ports: ports, Coflows: coflows}
}

func TestSingleCoflowFinishesAtLoad(t *testing.T) {
	// Fluid scheduling clears a lone coflow in exactly ρ(D): rates can
	// form the doubly stochastic matrix D/ρ.
	d := matrix.MustFromRows([][]int64{{1, 2}, {2, 1}})
	res, err := Simulate(inst(2, coflowmodel.FromMatrix(1, 1, 0, d)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Completion[0]-3) > 1e-6 {
		t.Fatalf("completion = %g, want ρ = 3", res.Completion[0])
	}
}

func TestDisjointCoflowsOverlap(t *testing.T) {
	a := coflowmodel.Coflow{ID: 1, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 4}}}
	b := coflowmodel.Coflow{ID: 2, Weight: 1, Flows: []coflowmodel.Flow{{Src: 1, Dst: 1, Size: 4}}}
	res, err := Simulate(inst(2, a, b))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Completion[0]-4) > 1e-6 || math.Abs(res.Completion[1]-4) > 1e-6 {
		t.Fatalf("completions = %v, want both 4 (disjoint pairs run in parallel)", res.Completion)
	}
}

func TestSEBFPrioritizesSmallCoflow(t *testing.T) {
	// A small coflow sharing a port with a large one should finish
	// near its own load, not after the large one.
	big := coflowmodel.Coflow{ID: 1, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 20}}}
	small := coflowmodel.Coflow{ID: 2, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 2}}}
	res, err := Simulate(inst(1, big, small))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[1] > 2+1e-6 {
		t.Fatalf("small coflow finished at %g, want 2 (SEBF priority)", res.Completion[1])
	}
	if math.Abs(res.Completion[0]-22) > 1e-6 {
		t.Fatalf("big coflow finished at %g, want 22", res.Completion[0])
	}
}

func TestWeightOverridesSize(t *testing.T) {
	// Same port, equal sizes, weight 10 vs 1: the heavy one goes first.
	light := coflowmodel.Coflow{ID: 1, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 4}}}
	heavy := coflowmodel.Coflow{ID: 2, Weight: 10, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 4}}}
	res, err := Simulate(inst(1, light, heavy))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[1] > 4+1e-6 {
		t.Fatalf("heavy coflow finished at %g, want 4", res.Completion[1])
	}
	if math.Abs(res.Completion[0]-8) > 1e-6 {
		t.Fatalf("light coflow finished at %g, want 8", res.Completion[0])
	}
}

func TestReleaseDatesRespected(t *testing.T) {
	c := coflowmodel.Coflow{ID: 1, Weight: 1, Release: 10,
		Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 3}}}
	res, err := Simulate(inst(1, c))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Completion[0]-13) > 1e-6 {
		t.Fatalf("completion = %g, want 13", res.Completion[0])
	}
}

func TestEmptyCoflowCompletesOnRelease(t *testing.T) {
	c := coflowmodel.Coflow{ID: 1, Weight: 1, Release: 4}
	other := coflowmodel.Coflow{ID: 2, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}}}
	res, err := Simulate(inst(1, c, other))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[0] != 4 {
		t.Fatalf("empty coflow completion = %g, want release 4", res.Completion[0])
	}
}

func TestWorkConservation(t *testing.T) {
	// Two coflows on the same pair: total drain time equals total work
	// (port never idles while work remains).
	a := coflowmodel.Coflow{ID: 1, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 7}}}
	b := coflowmodel.Coflow{ID: 2, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 5}}}
	res, err := Simulate(inst(1, a, b))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-12) > 1e-6 {
		t.Fatalf("makespan = %g, want 12 (work conservation)", res.Makespan)
	}
}

func randomInstance(rng *rand.Rand, m, n int, maxSize, maxRelease int64) *coflowmodel.Instance {
	ins := &coflowmodel.Instance{Ports: m}
	for k := 0; k < n; k++ {
		c := coflowmodel.Coflow{ID: k + 1, Weight: 1 + float64(rng.Intn(5))}
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

// Fluid completions can never beat the per-coflow load bound
// r_k + ρ_k, and the simulation must conserve work.
func TestFluidRespectsLoadBound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 80; trial++ {
		m := 1 + rng.Intn(4)
		n := 1 + rng.Intn(6)
		ins := randomInstance(rng, m, n, 8, 5)
		res, err := Simulate(ins)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for k := range ins.Coflows {
			c := &ins.Coflows[k]
			min := float64(c.Release + c.Load(m))
			if res.Completion[k] < min-1e-6 {
				t.Fatalf("trial %d: coflow %d at %g beats load bound %g",
					trial, k, res.Completion[k], min)
			}
		}
		// Makespan can't beat the global load bound either.
		sum := matrix.NewSquare(m)
		for k := range ins.Coflows {
			sum.AddMatrix(ins.Coflows[k].Matrix(m))
		}
		if res.Makespan < float64(sum.Load())-1e-6 {
			t.Fatalf("trial %d: makespan %g beats ρ(ΣD) = %d", trial, res.Makespan, sum.Load())
		}
	}
}

// With zero releases the fluid scheduler should be competitive with
// (often better than) the slotted heuristics, since rates relax the
// integrality of matchings.
func TestFluidCompetitiveWithSlotted(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var fluid, slotted float64
	for trial := 0; trial < 20; trial++ {
		ins := randomInstance(rng, 4, 8, 8, 0)
		fres, err := Simulate(ins)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := core.Schedule(ins, core.Options{Ordering: core.OrderLoadWeight, Grouping: true, Backfill: true})
		if err != nil {
			t.Fatal(err)
		}
		fluid += fres.TotalWeighted
		slotted += sres.TotalWeighted
	}
	if fluid > slotted*1.25 {
		t.Fatalf("fluid scheduler uncompetitive: %g vs slotted %g", fluid, slotted)
	}
}
