package switchsim

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"coflow/internal/lpmodel"
	"coflow/internal/matrix"
	"coflow/internal/trace"
)

// slotOracle is the slot-by-slot executor the block arithmetic is
// checked against: each term's q slots are walked one at a time, and
// in each slot every matched pair serves at most one unit, the first
// eligible one in its queue (backfill eligibility is judged at the
// term's first slot, the rule the block executor applies). It shares
// the plan loading, stage matrices and decompositions with Execute and
// nothing of the serving, so its transcript is exact by construction.
func slotOracle(plan *Plan) (*Result, *Transcript, error) {
	e, err := newExecutor(plan)
	if err != nil {
		return nil, nil, err
	}
	defer e.release()
	tr := &Transcript{Ports: plan.Ins.Ports}
	var t int64
	matchings := 0
	for _, st := range plan.Stages {
		for pos := st.Start; pos < st.End; pos++ {
			if r := plan.Ins.Coflows[plan.Order[pos]].Release; r > t {
				t = r
			}
		}
		d := e.stageMatrix(st)
		if d.IsZero() {
			continue
		}
		dec, err := e.dec.Decompose(d)
		if err != nil {
			return nil, nil, err
		}
		for _, term := range dec.Terms {
			termStart := t
			for s := int64(0); s < term.Count; s++ {
				for i, j := range term.Perm.To {
					if j == matrix.Unmatched {
						continue
					}
					if k, ok := e.serveOneSlot(i*e.m+j, termStart, t+1, st.End); ok {
						tr.Services = append(tr.Services, UnitService{Slot: t + 1, Src: i, Dst: j, Coflow: k})
					}
				}
				t++
			}
			matchings++
		}
	}
	res, err := e.finish(t, matchings)
	if err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

// serveOneSlot serves a single unit on pair in slot `slot`, with
// backfill eligibility evaluated at termStart, and reports which
// coflow it served.
func (e *executor) serveOneSlot(pair int, termStart, slot int64, stEnd int) (int, bool) {
	q := e.queue(pair)
	for idx := e.head[pair]; idx < len(q); idx++ {
		it := &q[idx]
		if it.remaining == 0 {
			if idx == e.head[pair] {
				e.head[pair]++
			}
			continue
		}
		if it.pos >= stEnd {
			if !e.plan.Backfill {
				return 0, false
			}
			if e.plan.Ins.Coflows[it.coflow].Release > termStart {
				continue
			}
		}
		it.remaining--
		e.remain[it.coflow]--
		if slot > e.lastSrv[it.coflow] {
			e.lastSrv[it.coflow] = slot
		}
		if it.remaining == 0 && idx == e.head[pair] {
			e.head[pair]++
		}
		return it.coflow, true
	}
	return 0, false
}

// sortedServices returns tr's services ordered by (slot, src, dst,
// coflow): the transcript as a multiset, whatever order it was
// recorded in.
func sortedServices(tr *Transcript) []UnitService {
	out := slices.Clone(tr.Services)
	slices.SortFunc(out, func(a, b UnitService) int {
		return cmp.Or(cmp.Compare(a.Slot, b.Slot), cmp.Compare(a.Src, b.Src),
			cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Coflow, b.Coflow))
	})
	return out
}

// matchOracle runs plan through Execute, ExecuteRecorded and
// slotOracle and reports the first disagreement: the Results must be
// equal field for field and the two transcripts equal as multisets.
func matchOracle(t testing.TB, plan *Plan) {
	t.Helper()
	block, err := Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	rec, tr, err := ExecuteRecorded(plan)
	if err != nil {
		t.Fatal(err)
	}
	want, wantTr, err := slotOracle(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(block, want) || !reflect.DeepEqual(rec, want) {
		t.Fatalf("results differ (backfill=%v recompute=%v stages=%d):\n Execute         %+v\n ExecuteRecorded %+v\n slotOracle      %+v",
			plan.Backfill, plan.Recompute, len(plan.Stages), block, rec, want)
	}
	got, exp := sortedServices(tr), sortedServices(wantTr)
	if tr.Ports != wantTr.Ports || len(got) != len(exp) {
		t.Fatalf("transcripts differ: %d ports, %d units recorded; oracle %d ports, %d units",
			tr.Ports, len(got), wantTr.Ports, len(exp))
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Fatalf("transcripts differ at unit %d of %d (by slot): recorded %+v, oracle %+v", i, len(got), got[i], exp[i])
		}
	}
}

// The differential at the benchmark's scale: trace.BenchConfig's 50
// ports, in H_ρ order and a random order, under the four cases of §4.1
// with random stages standing in for the geometric groups (which core
// builds) and SingleStage for "no grouping".
func TestBlockMatchesSlotOracleAtBenchScale(t *testing.T) {
	if testing.Short() {
		t.Skip("slot-by-slot walk of 50-port plans; skipped with -short")
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := trace.BenchConfig()
		cfg.Seed = seed
		ins := trace.MustGenerate(cfg)
		rng := rand.New(rand.NewSource(seed))
		n := len(ins.Coflows)
		for oi, order := range [][]int{lpmodel.LoadWeightOrder(ins), rng.Perm(n)} {
			for _, grouping := range []bool{false, true} {
				for _, backfill := range []bool{false, true} {
					stages := SingleStage(n)
					if grouping {
						stages = randomStages(rng, n)
					}
					plan := &Plan{Ins: ins, Order: order, Stages: stages, Backfill: backfill, Recompute: oi == 1}
					matchOracle(t, plan)
				}
			}
		}
	}
}

// FuzzExecuteVsSlotOracle drives the block executor and the slot
// oracle with random plans on up to five ports: releases, stages,
// backfill and recompute all drawn from the seed.
func FuzzExecuteVsSlotOracle(f *testing.F) {
	for _, seed := range []int64{1, 2, 404, 808} {
		f.Add(seed, uint8(3), uint8(4), uint8(5))
	}
	f.Fuzz(func(t *testing.T, seed int64, ports, coflows, maxRelease uint8) {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+int(ports%5), 1+int(coflows%8)
		plan := &Plan{
			Ins:       randomInstance(rng, m, n, 6, int64(maxRelease%40)),
			Order:     rng.Perm(n),
			Stages:    randomStages(rng, n),
			Backfill:  rng.Intn(2) == 0,
			Recompute: rng.Intn(2) == 0,
		}
		matchOracle(t, plan)
	})
}

// The recorded executor against the slot oracle: the M0 ≥ 50 filter
// of the 50-port bench trace, in H_ρ order, as one backfilled stage.
func benchRecorded(b *testing.B, exec func(*Plan) (*Result, *Transcript, error)) {
	ins := trace.MustGenerate(trace.BenchConfig()).FilterMinFlows(50)
	plan := &Plan{
		Ins: ins, Order: lpmodel.LoadWeightOrder(ins),
		Stages:   OneStage(len(ins.Coflows)),
		Backfill: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := exec(plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteRecorded(b *testing.B) { benchRecorded(b, ExecuteRecorded) }
func BenchmarkSlotOracle(b *testing.B)      { benchRecorded(b, slotOracle) }
