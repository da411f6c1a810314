package lpmodel

// What presolve hands the simplex on the production LPs, pinned two
// ways: byte for byte on three instances (the reduced problem as MPS),
// and structurally on a seeded table (every column kept, Postsolve a
// per-variable shift).

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/lp"
	"coflow/internal/trace"
)

// update regenerates the reduced-LP goldens instead of comparing:
//
//	go test ./internal/lpmodel/ -run TestReducedLPGolden -update
//
// The committed files were written by the commit BEFORE presolve lost
// its column reductions and LP-EXP its own builder, so they are the
// proof that neither change moved a production LP. A diff here means
// the builder or presolve changed what the simplex solves.
var update = flag.Bool("update", false, "rewrite testdata/reduced_* with the current presolved LPs")

// relaxation names one of the two programs built on an instance.
type relaxation struct {
	name string
	ins  *coflowmodel.Instance
	unit bool // (LP-EXP) on the unit grid rather than (LP)
}

func (r relaxation) model(t testing.TB) *intervalModel {
	t.Helper()
	points, charge := Intervals, 0
	if r.unit {
		points, charge = unitPoints, 1
	}
	mod, err := buildIntervalLP(r.ins, points, charge)
	if err != nil {
		t.Fatalf("%s: build: %v", r.name, err)
	}
	return mod
}

func (r relaxation) problem(t *testing.T) *lp.Problem { return r.model(t).prob }

// goldenRelaxations are the interval LPs of the two root golden
// instances (testdata/golden_*.json: the paper's §2 worked example and
// the 20-coflow pinned trace) and the LP-EXP of `experiments
// lowerbound`'s 10 × 10 instance.
func goldenRelaxations() []relaxation {
	worked := &coflowmodel.Instance{
		Ports: 2,
		Coflows: []coflowmodel.Coflow{{
			ID: 1, Weight: 1,
			Flows: []coflowmodel.Flow{
				{Src: 0, Dst: 0, Size: 1}, {Src: 0, Dst: 1, Size: 2},
				{Src: 1, Dst: 0, Size: 2}, {Src: 1, Dst: 1, Size: 1},
			},
		}},
	}
	cfg := trace.DefaultConfig()
	cfg.Ports, cfg.NumCoflows, cfg.Seed = 10, 20, 424242
	cfg.MaxFlowSize, cfg.MeanInterarrival = 25, 2
	pinned := trace.MustGenerate(cfg)

	cfg = trace.DefaultConfig()
	cfg.Ports, cfg.NumCoflows, cfg.Seed, cfg.MaxFlowSize = 10, 10, 1, 10
	small := trace.MustGenerate(cfg)
	small.SetRandomPermutationWeights(rand.New(rand.NewSource(7)))

	return []relaxation{
		{name: "worked_example", ins: worked},
		{name: "pinned20", ins: pinned},
		{name: "lpexp10x10", ins: small, unit: true},
	}
}

func TestReducedLPGolden(t *testing.T) {
	for _, r := range goldenRelaxations() {
		t.Run(r.name, func(t *testing.T) {
			ps, err := lp.Presolve(r.problem(t))
			if err != nil {
				t.Fatal(err)
			}
			if ps.Decided() {
				t.Fatal("presolve ruled a relaxation infeasible")
			}
			var mps bytes.Buffer
			if err := lp.WriteMPS(&mps, ps.Reduced(), r.name); err != nil {
				t.Fatal(err)
			}
			got, path := mps.Bytes(), filepath.Join("testdata", "reduced_"+r.name+".mps")
			if r.unit {
				// The LP-EXP's reduced MPS is 1.8 MB; its digest is committed.
				sum := sha256.Sum256(got)
				got, path = []byte(hex.EncodeToString(sum[:])+"\n"), path+".sha256"
			}
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with: go test ./internal/lpmodel/ -run TestReducedLPGolden -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("presolved %s (%d bytes of MPS) differs from %s: the builder or presolve changed what the simplex solves",
					r.name, mps.Len(), path)
			}
		})
	}
}

// TestPresolveKeepsColumns is internal/lp's test of the same name on
// the LPs this package builds: both relaxations, with and without
// release dates.
func TestPresolveKeepsColumns(t *testing.T) {
	cases := goldenRelaxations()
	for i := 0; i < 12; i++ {
		cfg := trace.DefaultConfig()
		cfg.Ports = 2 + i%4
		cfg.NumCoflows = 2 + i%5
		cfg.Seed = int64(300 + i)
		cfg.MaxFlowSize = 20
		if i%2 == 1 {
			cfg.MeanInterarrival = 3
		}
		ins := trace.MustGenerate(cfg)
		label := fmt.Sprintf("m=%d n=%d rel=%g", cfg.Ports, cfg.NumCoflows, cfg.MeanInterarrival)
		cases = append(cases,
			relaxation{name: label + " interval", ins: ins},
			relaxation{name: label + " time-indexed", ins: ins, unit: true})
	}
	rng := rand.New(rand.NewSource(17))
	for _, r := range cases {
		prob := r.problem(t)
		ps, err := lp.Presolve(prob)
		if err != nil {
			t.Fatalf("%s: presolve: %v", r.name, err)
		}
		if ps.Decided() {
			t.Fatalf("%s: presolve ruled a relaxation infeasible", r.name)
		}
		nv := prob.NumVars()
		if got := ps.Reduced().NumVars(); got != nv {
			t.Fatalf("%s: reduced problem has %d vars, built %d", r.name, got, nv)
		}
		shift, err := ps.Postsolve(make([]float64, nv))
		if err != nil {
			t.Fatalf("%s: postsolve: %v", r.name, err)
		}
		for trial := 0; trial < 3; trial++ {
			x := make([]float64, nv)
			for v := range x {
				x[v] = float64(rng.Intn(9)) / 8
			}
			lifted, err := ps.Postsolve(x)
			if err != nil {
				t.Fatalf("%s: postsolve: %v", r.name, err)
			}
			for v := range x {
				if d := lifted[v] - x[v]; math.Abs(d-shift[v]) > 1e-12 {
					t.Fatalf("%s: Postsolve moved x%d by %g at %g, by %g at 0", r.name, v, d, x[v], shift[v])
				}
			}
		}
	}
}
