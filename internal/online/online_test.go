package online

import (
	"math/rand"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/matrix"
)

func inst(ports int, coflows ...coflowmodel.Coflow) *coflowmodel.Instance {
	return &coflowmodel.Instance{Ports: ports, Coflows: coflows}
}

func TestSingleCoflowWithinTwiceLoad(t *testing.T) {
	// Greedy maximal matchings clear a coflow within 2ρ−1 slots.
	d := matrix.MustFromRows([][]int64{{1, 2}, {2, 1}})
	for _, p := range []Policy{FIFO, SEBF, WSPT} {
		res, err := Simulate(inst(2, coflowmodel.FromMatrix(1, 1, 0, d)), p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completion[0] < 3 || res.Completion[0] > 5 {
			t.Fatalf("%v: completion %d outside [ρ, 2ρ−1] = [3, 5]", p, res.Completion[0])
		}
	}
}

func TestSingleFlowExact(t *testing.T) {
	c := coflowmodel.Coflow{ID: 1, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 7}}}
	res, err := Simulate(inst(1, c), FIFO)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[0] != 7 {
		t.Fatalf("completion = %d, want 7", res.Completion[0])
	}
}

func TestArrivalsRespected(t *testing.T) {
	c := coflowmodel.Coflow{ID: 1, Weight: 1, Release: 10,
		Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 2}}}
	res, err := Simulate(inst(1, c), SEBF)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[0] != 12 {
		t.Fatalf("completion = %d, want 12 (release 10 + 2 units)", res.Completion[0])
	}
}

func TestEmptyCoflow(t *testing.T) {
	empty := coflowmodel.Coflow{ID: 1, Weight: 1, Release: 3}
	busy := coflowmodel.Coflow{ID: 2, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}}}
	res, err := Simulate(inst(1, empty, busy), WSPT)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[0] != 3 {
		t.Fatalf("empty coflow completion = %d, want release 3", res.Completion[0])
	}
}

func TestSEBFPrioritizesSmall(t *testing.T) {
	big := coflowmodel.Coflow{ID: 1, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 20}}}
	small := coflowmodel.Coflow{ID: 2, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 2}}}
	res, err := Simulate(inst(1, big, small), SEBF)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[1] != 2 || res.Completion[0] != 22 {
		t.Fatalf("completions = %v, want small at 2, big at 22", res.Completion)
	}
	// FIFO does the opposite.
	res, err = Simulate(inst(1, big, small), FIFO)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[0] != 20 || res.Completion[1] != 22 {
		t.Fatalf("FIFO completions = %v, want big at 20, small at 22", res.Completion)
	}
}

func TestWeightedPriority(t *testing.T) {
	light := coflowmodel.Coflow{ID: 1, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 5}}}
	heavy := coflowmodel.Coflow{ID: 2, Weight: 100, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 5}}}
	for _, p := range []Policy{SEBF, WSPT} {
		res, err := Simulate(inst(1, light, heavy), p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completion[1] != 5 {
			t.Fatalf("%v: heavy coflow at %d, want 5", p, res.Completion[1])
		}
	}
}

func randomInstance(rng *rand.Rand, m, n int, maxSize, maxRelease int64) *coflowmodel.Instance {
	ins := &coflowmodel.Instance{Ports: m}
	for k := 0; k < n; k++ {
		c := coflowmodel.Coflow{ID: k + 1, Weight: 1 + float64(rng.Intn(5))}
		if maxRelease > 0 {
			c.Release = rng.Int63n(maxRelease + 1)
		}
		for f := 0; f < 1+rng.Intn(m*m); f++ {
			c.Flows = append(c.Flows, coflowmodel.Flow{
				Src: rng.Intn(m), Dst: rng.Intn(m), Size: 1 + rng.Int63n(maxSize),
			})
		}
		ins.Coflows = append(ins.Coflows, c)
	}
	return ins
}

// All work must be served; completions respect release + own load;
// and the makespan respects the global load bound.
func TestInvariantsOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	for trial := 0; trial < 80; trial++ {
		m := 1 + rng.Intn(4)
		n := 1 + rng.Intn(7)
		ins := randomInstance(rng, m, n, 7, 6)
		for _, p := range []Policy{FIFO, SEBF, WSPT} {
			res, err := Simulate(ins, p)
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, p, err)
			}
			sum := matrix.NewSquare(m)
			for k := range ins.Coflows {
				c := &ins.Coflows[k]
				min := c.Release + c.Load(m)
				if res.Completion[k] < min {
					t.Fatalf("trial %d %v: coflow %d at %d beats bound %d",
						trial, p, k, res.Completion[k], min)
				}
				sum.AddMatrix(c.Matrix(m))
			}
			if res.Makespan < sum.Load() {
				t.Fatalf("trial %d %v: makespan %d beats ρ(ΣD) = %d",
					trial, p, res.Makespan, sum.Load())
			}
			// Greedy maximal matching guarantee: within 2× the naive
			// sequential bound.
			if res.Makespan > 2*ins.Horizon() {
				t.Fatalf("trial %d %v: makespan %d implausibly large", trial, p, res.Makespan)
			}
		}
	}
}

func TestPolicyString(t *testing.T) {
	if FIFO.String() != "FIFO" || SEBF.String() != "SEBF" || WSPT.String() != "WSPT" {
		t.Fatal("Policy.String broken")
	}
}

// With every release at zero FIFO visits coflows in instance order, so
// the instance written in the wanted order is the fixed-priority
// ("permutation") schedule of the paper's §1.1.
func TestSimulateOrderFixedPriority(t *testing.T) {
	big := coflowmodel.Coflow{ID: 1, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 20}}}
	small := coflowmodel.Coflow{ID: 2, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 2}}}
	// Big first.
	res, err := Simulate(inst(1, big, small), FIFO)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[0] != 20 || res.Completion[1] != 22 {
		t.Fatalf("completions = %v, want [20 22]", res.Completion)
	}
	// Small first.
	res, err = Simulate(inst(1, small, big), FIFO)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[0] != 2 || res.Completion[1] != 22 {
		t.Fatalf("completions = %v, want [2 22]", res.Completion)
	}
}
