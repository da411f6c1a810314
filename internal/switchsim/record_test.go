package switchsim

import (
	"math/rand"
	"strings"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/matrix"
)

// Every executed schedule must satisfy the formulation (O): matching
// constraints per slot, release dates, and exact demand coverage. The
// validator is an independent checker over the unit-level transcript.
func TestTranscriptFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	for trial := 0; trial < 80; trial++ {
		m := 1 + rng.Intn(4)
		n := 1 + rng.Intn(5)
		ins := randomInstance(rng, m, n, 6, 5)
		plan := &Plan{
			Ins:       ins,
			Order:     rng.Perm(n),
			Stages:    randomStages(rng, n),
			Backfill:  rng.Intn(2) == 0,
			Recompute: rng.Intn(2) == 0,
		}
		res, tr, err := ExecuteRecorded(plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateTranscript(ins, tr, res.Completion); err != nil {
			t.Fatalf("trial %d: %v (plan %+v)", trial, err, plan)
		}
	}
}

func TestValidateTranscriptCatchesViolations(t *testing.T) {
	d := matrix.MustFromRows([][]int64{{2, 0}, {0, 1}})
	ins := inst(2, cf(1, 1, 0, d))
	plan := &Plan{Ins: ins, Order: []int{0}, Stages: OneStage(1)}
	res, tr, err := ExecuteRecorded(plan)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func(*Transcript, []int64) (*Transcript, []int64){
		"drop a unit": func(tr *Transcript, c []int64) (*Transcript, []int64) {
			out := &Transcript{Ports: tr.Ports, Services: tr.Services[:len(tr.Services)-1]}
			return out, c
		},
		"double-book ingress": func(tr *Transcript, c []int64) (*Transcript, []int64) {
			out := &Transcript{Ports: tr.Ports, Services: append([]UnitService{}, tr.Services...)}
			dup := out.Services[0]
			dup.Dst = 1 - dup.Dst // same slot, same src, different dst
			out.Services = append(out.Services, dup)
			return out, c
		},
		"phantom demand": func(tr *Transcript, c []int64) (*Transcript, []int64) {
			out := &Transcript{Ports: tr.Ports, Services: append([]UnitService{}, tr.Services...)}
			out.Services = append(out.Services, UnitService{Slot: 99, Src: 1, Dst: 0, Coflow: 0})
			return out, c
		},
		"wrong completion": func(tr *Transcript, c []int64) (*Transcript, []int64) {
			cc := append([]int64{}, c...)
			cc[0]++
			return tr, cc
		},
		"serve before release": func(tr *Transcript, c []int64) (*Transcript, []int64) {
			out := &Transcript{Ports: tr.Ports, Services: append([]UnitService{}, tr.Services...)}
			out.Services[0].Slot = 0
			return out, c
		},
	}
	for name, corrupt := range corruptions {
		ctr, cc := corrupt(tr, res.Completion)
		if err := ValidateTranscript(ins, ctr, cc); err == nil {
			t.Errorf("%s: validator accepted a corrupted transcript", name)
		}
	}
}

func TestValidateTranscriptArity(t *testing.T) {
	ins := inst(1, cf(1, 1, 0, matrix.MustFromRows([][]int64{{1}})))
	tr := &Transcript{Ports: 2}
	if err := ValidateTranscript(ins, tr, []int64{1}); err == nil {
		t.Error("port mismatch accepted")
	}
	tr = &Transcript{Ports: 1}
	if err := ValidateTranscript(ins, tr, []int64{1, 2}); err == nil {
		t.Error("completion arity mismatch accepted")
	}
}

func TestRenderGantt(t *testing.T) {
	d1 := matrix.MustFromRows([][]int64{{2, 0}, {0, 0}})
	d2 := matrix.MustFromRows([][]int64{{0, 0}, {0, 2}})
	ins := inst(2, cf(1, 1, 0, d1), cf(2, 1, 0, d2))
	plan := &Plan{Ins: ins, Order: []int{0, 1}, Stages: SingleStage(2), Backfill: true}
	_, tr, err := ExecuteRecorded(plan)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderGantt(ins, tr, 0)
	if !strings.Contains(out, "in0") || !strings.Contains(out, "in1") {
		t.Fatalf("missing port rows:\n%s", out)
	}
	if !strings.Contains(out, "1=coflow1") || !strings.Contains(out, "2=coflow2") {
		t.Fatalf("missing legend:\n%s", out)
	}
	// With backfill, coflow 2 occupies ingress 1 during slots 1-2.
	if !strings.Contains(out, "|22|") {
		t.Fatalf("expected coflow 2 on ingress 1 for two slots:\n%s", out)
	}
}

func TestRenderGanttTruncation(t *testing.T) {
	d := matrix.MustFromRows([][]int64{{10}})
	ins := inst(1, cf(1, 1, 0, d))
	plan := &Plan{Ins: ins, Order: []int{0}, Stages: OneStage(1)}
	_, tr, err := ExecuteRecorded(plan)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderGantt(ins, tr, 4)
	if !strings.Contains(out, "truncated") {
		t.Fatalf("missing truncation marker:\n%s", out)
	}
}

func TestRenderGanttEmpty(t *testing.T) {
	ins := inst(1, coflowmodel.Coflow{ID: 1, Weight: 1})
	out := RenderGantt(ins, &Transcript{Ports: 1}, 10)
	if !strings.Contains(out, "empty") {
		t.Fatalf("empty schedule rendering wrong: %s", out)
	}
}
