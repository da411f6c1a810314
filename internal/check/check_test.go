package check

import (
	"strings"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/online"
	"coflow/internal/switchsim"
	"coflow/internal/trace"
)

// fig1Instance is the paper's Figure 1 coflow plus a small released-
// later competitor: enough structure to exercise matchings, releases
// and completions.
func fig1Instance() *coflowmodel.Instance {
	return &coflowmodel.Instance{
		Ports: 2,
		Coflows: []coflowmodel.Coflow{
			{ID: 1, Weight: 2, Release: 0, Flows: []coflowmodel.Flow{
				{Src: 0, Dst: 0, Size: 1}, {Src: 0, Dst: 1, Size: 2},
				{Src: 1, Dst: 0, Size: 2}, {Src: 1, Dst: 1, Size: 1},
			}},
			{ID: 2, Weight: 1, Release: 3, Flows: []coflowmodel.Flow{
				{Src: 0, Dst: 1, Size: 2}, {Src: 1, Dst: 0, Size: 1},
			}},
		},
	}
}

// validRecorded produces a feasible hand-checkable schedule for
// fig1Instance by executing it slot-accurately.
func validRecorded(t *testing.T, ins *coflowmodel.Instance) *Recorded {
	t.Helper()
	order := make([]int, len(ins.Coflows))
	for i := range order {
		order[i] = i
	}
	res, tr, err := switchsim.ExecuteRecorded(&switchsim.Plan{
		Ins: ins, Order: order, Stages: switchsim.SingleStage(len(order)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return FromTranscript(tr, res)
}

func kinds(vs []Violation) string {
	var b strings.Builder
	for _, v := range vs {
		b.WriteString(v.Kind.String())
		b.WriteByte(' ')
	}
	return b.String()
}

func hasKind(vs []Violation, k Kind) bool {
	for _, v := range vs {
		if v.Kind == k {
			return true
		}
	}
	return false
}

func TestScheduleAcceptsValidSchedule(t *testing.T) {
	ins := fig1Instance()
	rec := validRecorded(t, ins)
	if vs := Schedule(ins, rec); vs != nil {
		t.Fatalf("valid schedule rejected: %s", kinds(vs))
	}
}

// TestScheduleAcceptsSwitchsimOptions: every scheduling-stage
// combination of the paper's design space produces a schedule the
// validator certifies, on an instance with release dates.
func TestScheduleAcceptsSwitchsimOptions(t *testing.T) {
	cfg := trace.Config{
		Ports: 4, NumCoflows: 6, Seed: 7,
		NarrowFraction: 0.5, WideFraction: 0.2,
		MaxFlowSize: 6, ParetoAlpha: 1.3, MeanInterarrival: 2,
	}
	ins := trace.MustGenerate(cfg)
	order := make([]int, len(ins.Coflows))
	for i := range order {
		order[i] = i
	}
	for _, backfill := range []bool{false, true} {
		for _, stages := range [][]switchsim.Stage{
			switchsim.SingleStage(len(order)),
			switchsim.OneStage(len(order)),
		} {
			res, tr, err := switchsim.ExecuteRecorded(&switchsim.Plan{
				Ins: ins, Order: order, Stages: stages, Backfill: backfill,
			})
			if err != nil {
				t.Fatal(err)
			}
			if vs := Schedule(ins, FromTranscript(tr, res)); vs != nil {
				t.Errorf("backfill=%v stages=%d: %s", backfill, len(stages), kinds(vs))
			}
		}
	}
}

// TestScheduleAcceptsOnlineRuns: the per-slot online scheduler's
// output, recorded StepResult by StepResult, passes validation under
// every policy.
func TestScheduleAcceptsOnlineRuns(t *testing.T) {
	ins := fig1Instance()
	for _, policy := range []online.Policy{online.FIFO, online.SEBF, online.WSPT} {
		rec := recordOnlineRun(t, ins, policy)
		if vs := Schedule(ins, rec); vs != nil {
			t.Errorf("%v: online run rejected: %s", policy, kinds(vs))
		}
	}
}

// recordOnlineRun drives online.State directly (mirroring
// online.Simulate's loop) while recording every slot.
func recordOnlineRun(t *testing.T, ins *coflowmodel.Instance, policy online.Policy) *Recorded {
	t.Helper()
	state := online.NewState(ins.Ports)
	recorder := NewRecorder(ins.Ports)
	completion := make([]int64, len(ins.Coflows))
	for k := range ins.Coflows {
		c := &ins.Coflows[k]
		remaining, err := state.Add(k, c.Weight, c.Release, c.Flows)
		if err != nil {
			t.Fatal(err)
		}
		if remaining == 0 {
			completion[k] = c.Release
		}
	}
	var tw float64
	var makespan, tt int64
	horizon := ins.Horizon() + 1
	for state.Len() > 0 && tt <= horizon {
		res := state.Step(tt+1, policy)
		if res.Active == 0 {
			tt = state.NextRelease(tt)
			continue
		}
		recorder.Observe(res)
		for _, k := range res.Completed {
			completion[k] = res.Slot
		}
		tt = res.Slot
	}
	if state.Len() > 0 {
		t.Fatalf("online run stalled with %d live coflows", state.Len())
	}
	for k := range ins.Coflows {
		tw += ins.Coflows[k].Weight * float64(completion[k])
		if completion[k] > makespan {
			makespan = completion[k]
		}
	}
	return recorder.Finish(completion, tw, makespan)
}

func TestScheduleRejectsInvalidSchedules(t *testing.T) {
	ins := fig1Instance()
	cases := []struct {
		name   string
		mutate func(rec *Recorded)
		want   Kind
	}{
		{"double-booked ingress", func(rec *Recorded) {
			s := rec.Services[0]
			s.Dst = 1 - s.Dst // same slot, same src, other dst
			rec.Services = append(rec.Services, s)
		}, KindDoubleBooked},
		{"double-booked egress", func(rec *Recorded) {
			s := rec.Services[0]
			s.Src = 1 - s.Src
			rec.Services = append(rec.Services, s)
		}, KindDoubleBooked},
		{"pre-release service", func(rec *Recorded) {
			// Coflow 1 releases at 3; claim a unit moved in slot 2.
			for i := range rec.Services {
				if rec.Services[i].Coflow == 1 {
					rec.Services[i].Slot = 2
					break
				}
			}
		}, KindPreRelease},
		{"over-served demand", func(rec *Recorded) {
			// Duplicate a service into a fresh slot: more units than
			// demand on that pair.
			s := rec.Services[0]
			s.Slot = 1000
			rec.Services = append(rec.Services, s)
		}, KindOverServed},
		{"under-served demand", func(rec *Recorded) {
			rec.Services = rec.Services[:len(rec.Services)-1]
		}, KindUnderServed},
		{"unknown coflow", func(rec *Recorded) {
			rec.Services[0].Coflow = 99
		}, KindBadService},
		{"out-of-range port", func(rec *Recorded) {
			rec.Services[0].Src = 7
		}, KindBadService},
		{"non-positive slot", func(rec *Recorded) {
			rec.Services[0].Slot = 0
		}, KindBadService},
		{"wrong completion claim", func(rec *Recorded) {
			rec.Completion[0]++
		}, KindBadCompletion},
		{"wrong objective claim", func(rec *Recorded) {
			rec.TotalWeighted += 1
		}, KindBadObjective},
		{"wrong makespan claim", func(rec *Recorded) {
			rec.Makespan += 3
		}, KindBadObjective},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := validRecorded(t, ins)
			// Completion/objective fields alias the executor's result;
			// copy before mutating.
			rec.Completion = append([]int64(nil), rec.Completion...)
			tc.mutate(rec)
			vs := Schedule(ins, rec)
			if !hasKind(vs, tc.want) {
				t.Fatalf("want %v, got: %s", tc.want, kinds(vs))
			}
		})
	}
}

func TestScheduleStructuralMismatches(t *testing.T) {
	ins := fig1Instance()
	rec := validRecorded(t, ins)

	wrongPorts := *rec
	wrongPorts.Ports = 3
	if vs := Schedule(ins, &wrongPorts); !hasKind(vs, KindPortMismatch) {
		t.Errorf("port mismatch not reported: %s", kinds(vs))
	}

	wrongLen := *rec
	wrongLen.Completion = rec.Completion[:1]
	if vs := Schedule(ins, &wrongLen); !hasKind(vs, KindBadCompletion) {
		t.Errorf("completion length mismatch not reported: %s", kinds(vs))
	}

	bad := &coflowmodel.Instance{Ports: 0}
	if vs := Schedule(bad, rec); !hasKind(vs, KindBadInstance) {
		t.Errorf("invalid instance not reported: %s", kinds(vs))
	}
}

// TestScheduleTruncatesViolationFlood: a schedule that is wrong
// everywhere reports at most MaxViolations plus the truncation marker.
func TestScheduleTruncatesViolationFlood(t *testing.T) {
	ins := fig1Instance()
	rec := validRecorded(t, ins)
	flood := *rec
	flood.Services = nil
	for i := 0; i < 2*MaxViolations; i++ {
		flood.Services = append(flood.Services, Service{Slot: int64(i + 1), Src: 9, Dst: 9, Coflow: 0})
	}
	vs := Schedule(ins, &flood)
	if len(vs) != MaxViolations+1 {
		t.Fatalf("got %d violations, want %d+1", len(vs), MaxViolations)
	}
	if vs[len(vs)-1].Kind != KindTruncated {
		t.Fatalf("last violation = %v, want truncation marker", vs[len(vs)-1].Kind)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindBadInstance; k <= KindTruncated; k++ {
		if s := k.String(); strings.HasPrefix(s, "Kind(") {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	v := Violation{Kind: KindOverServed, Slot: 3, Coflow: 1, Port: -1, Msg: "x"}
	if got := v.String(); !strings.Contains(got, "over-served") {
		t.Errorf("Violation.String() = %q", got)
	}
}
