package switchsim

import (
	"math/rand"
	"slices"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/lpmodel"
	"coflow/internal/matrix"
)

func inst(ports int, coflows ...coflowmodel.Coflow) *coflowmodel.Instance {
	return &coflowmodel.Instance{Ports: ports, Coflows: coflows}
}

func cf(id int, weight float64, release int64, d *matrix.Matrix) coflowmodel.Coflow {
	return coflowmodel.FromMatrix(id, weight, release, d)
}

func TestFigure1Coflow(t *testing.T) {
	// The intro example: [[1,2],[2,1]] completes in exactly ρ = 3 slots.
	ins := inst(2, cf(1, 1, 0, matrix.MustFromRows([][]int64{{1, 2}, {2, 1}})))
	res, err := Execute(&Plan{Ins: ins, Order: []int{0}, Stages: OneStage(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[0] != 3 {
		t.Fatalf("completion = %d, want 3", res.Completion[0])
	}
	if res.Makespan != 3 || res.TotalWeighted != 3 {
		t.Fatalf("makespan=%d total=%g, want 3/3", res.Makespan, res.TotalWeighted)
	}
}

func TestSequentialSingleMachine(t *testing.T) {
	// m=1: equivalent to single-machine scheduling. Sizes 2 then 3.
	d1 := matrix.MustFromRows([][]int64{{2}})
	d2 := matrix.MustFromRows([][]int64{{3}})
	ins := inst(1, cf(1, 1, 0, d1), cf(2, 1, 0, d2))
	res, err := Execute(&Plan{Ins: ins, Order: []int{0, 1}, Stages: SingleStage(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[0] != 2 || res.Completion[1] != 5 {
		t.Fatalf("completions = %v, want [2 5]", res.Completion)
	}
}

func TestBackfillFillsIdleSlots(t *testing.T) {
	// Coflow 1 only loads pair (0,0); its augmented schedule matches
	// (1,1) idly. Coflow 2 lives entirely on (1,1): with backfilling it
	// finishes alongside coflow 1.
	d1 := matrix.MustFromRows([][]int64{{2, 0}, {0, 0}})
	d2 := matrix.MustFromRows([][]int64{{0, 0}, {0, 2}})
	ins := inst(2, cf(1, 1, 0, d1), cf(2, 1, 0, d2))

	plain, err := Execute(&Plan{Ins: ins, Order: []int{0, 1}, Stages: SingleStage(2)})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Completion[0] != 2 || plain.Completion[1] != 4 {
		t.Fatalf("no backfill: %v, want [2 4]", plain.Completion)
	}

	bf, err := Execute(&Plan{Ins: ins, Order: []int{0, 1}, Stages: SingleStage(2), Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	if bf.Completion[0] != 2 || bf.Completion[1] != 2 {
		t.Fatalf("backfill: %v, want [2 2]", bf.Completion)
	}
}

func TestGroupingConsolidatesComplementaryCoflows(t *testing.T) {
	d1 := matrix.MustFromRows([][]int64{{1, 0}, {0, 0}})
	d2 := matrix.MustFromRows([][]int64{{0, 0}, {0, 1}})
	ins := inst(2, cf(1, 1, 0, d1), cf(2, 1, 0, d2))

	seq, err := Execute(&Plan{Ins: ins, Order: []int{0, 1}, Stages: SingleStage(2)})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Completion[0] != 1 || seq.Completion[1] != 2 {
		t.Fatalf("sequential: %v, want [1 2]", seq.Completion)
	}

	grp, err := Execute(&Plan{Ins: ins, Order: []int{0, 1}, Stages: OneStage(2)})
	if err != nil {
		t.Fatal(err)
	}
	if grp.Completion[0] != 1 || grp.Completion[1] != 1 {
		t.Fatalf("grouped: %v, want [1 1]", grp.Completion)
	}
}

func TestReleaseDateDelaysService(t *testing.T) {
	d := matrix.MustFromRows([][]int64{{1}})
	ins := inst(1, cf(1, 1, 5, d))
	res, err := Execute(&Plan{Ins: ins, Order: []int{0}, Stages: OneStage(1)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[0] != 6 {
		t.Fatalf("completion = %d, want 6 (released at 5, one unit)", res.Completion[0])
	}
}

func TestGroupWaitsForLatestRelease(t *testing.T) {
	d := matrix.MustFromRows([][]int64{{1}})
	ins := inst(1, cf(1, 1, 0, d), cf(2, 1, 10, d))
	res, err := Execute(&Plan{Ins: ins, Order: []int{0, 1}, Stages: OneStage(2)})
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm 2 schedules the group after all members are released.
	if res.Completion[0] != 11 || res.Completion[1] != 12 {
		t.Fatalf("completions = %v, want [11 12]", res.Completion)
	}
}

func TestBackfillRespectsRelease(t *testing.T) {
	// Coflow 2 is not released when coflow 1's block starts; backfill
	// must not serve it early.
	d1 := matrix.MustFromRows([][]int64{{2, 0}, {0, 0}})
	d2 := matrix.MustFromRows([][]int64{{0, 0}, {0, 2}})
	ins := inst(2, cf(1, 1, 0, d1), cf(2, 1, 100, d2))
	res, err := Execute(&Plan{Ins: ins, Order: []int{0, 1}, Stages: SingleStage(2), Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[1] <= 100 {
		t.Fatalf("coflow 2 served before release: completion %d", res.Completion[1])
	}
}

// A backfilled coflow released inside a stage's span is eligible in
// the blocks that start at or after its release: the release test
// reads the block's start slot, not the stage's. Coflow 1's stage has
// two terms (the identity twice, the swap once, in either order) and
// coflow 2, released at 1, fits one unit into whichever of them starts
// after slot 1; judged at the stage start it would wait, and finish at
// 5, not 4.
func TestBackfillReleasedInsideStage(t *testing.T) {
	d1 := matrix.MustFromRows([][]int64{{2, 1}, {0, 0}})
	d2 := matrix.MustFromRows([][]int64{{0, 0}, {1, 1}})
	ins := inst(2, cf(1, 1, 0, d1), cf(2, 1, 1, d2))
	plan := &Plan{Ins: ins, Order: []int{0, 1}, Stages: SingleStage(2), Backfill: true}
	matchOracle(t, plan)
	res, err := Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{3, 4}; !slices.Equal(res.Completion, want) {
		t.Fatalf("completions %v, want %v", res.Completion, want)
	}
}

func TestRecomputeSkipsPrepaidWork(t *testing.T) {
	// With backfill, coflow 2 is fully served during stage 1. The
	// paper-literal plan still spends ρ slots on stage 2 (harmless);
	// with Recompute the stage collapses to nothing. Completion times
	// agree; the schedule length differs.
	d1 := matrix.MustFromRows([][]int64{{3, 0}, {0, 0}})
	d2 := matrix.MustFromRows([][]int64{{0, 0}, {0, 3}})
	ins := inst(2, cf(1, 1, 0, d1), cf(2, 1, 0, d2))

	literal, err := Execute(&Plan{Ins: ins, Order: []int{0, 1}, Stages: SingleStage(2), Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	recomp, err := Execute(&Plan{Ins: ins, Order: []int{0, 1}, Stages: SingleStage(2), Backfill: true, Recompute: true})
	if err != nil {
		t.Fatal(err)
	}
	for k := range literal.Completion {
		if literal.Completion[k] != recomp.Completion[k] {
			t.Fatalf("completions differ: %v vs %v", literal.Completion, recomp.Completion)
		}
	}
	if recomp.Slots >= literal.Slots {
		t.Fatalf("recompute did not shorten the schedule: %d vs %d", recomp.Slots, literal.Slots)
	}
}

func TestEmptyCoflowCompletesOnRelease(t *testing.T) {
	ins := inst(2,
		coflowmodel.Coflow{ID: 1, Weight: 1, Release: 7},
		cf(2, 1, 0, matrix.MustFromRows([][]int64{{1, 0}, {0, 0}})))
	res, err := Execute(&Plan{Ins: ins, Order: []int{0, 1}, Stages: SingleStage(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion[0] != 7 {
		t.Fatalf("empty coflow completion = %d, want its release 7", res.Completion[0])
	}
}

func TestPlanValidation(t *testing.T) {
	ins := inst(1, cf(1, 1, 0, matrix.MustFromRows([][]int64{{1}})))
	bad := []*Plan{
		{Ins: ins, Order: []int{}, Stages: nil},
		{Ins: ins, Order: []int{0, 0}, Stages: OneStage(2)},
		{Ins: ins, Order: []int{1}, Stages: OneStage(1)},
		{Ins: ins, Order: []int{0}, Stages: []Stage{{0, 0}}},
		{Ins: ins, Order: []int{0}, Stages: []Stage{{0, 2}}},
		{Ins: ins, Order: []int{0}, Stages: []Stage{}},
	}
	for i, p := range bad {
		if _, err := Execute(p); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
}

func randomInstance(rng *rand.Rand, m, n int, maxSize int64, maxRelease int64) *coflowmodel.Instance {
	ins := &coflowmodel.Instance{Ports: m}
	for k := 0; k < n; k++ {
		c := coflowmodel.Coflow{
			ID:      k + 1,
			Weight:  1 + float64(rng.Intn(5)),
			Release: rng.Int63n(maxRelease + 1),
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

func randomStages(rng *rand.Rand, n int) []Stage {
	var stages []Stage
	start := 0
	for start < n {
		end := start + 1 + rng.Intn(n-start)
		stages = append(stages, Stage{Start: start, End: end})
		start = end
	}
	return stages
}

// The block executor and the slot oracle must agree exactly on every
// configuration: Result field for field, and the transcript as a
// multiset of unit services.
func TestBlockMatchesSlotAccurate(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 150; trial++ {
		m := 1 + rng.Intn(4)
		n := 1 + rng.Intn(5)
		matchOracle(t, &Plan{
			Ins:       randomInstance(rng, m, n, 6, 5),
			Order:     rng.Perm(n),
			Stages:    randomStages(rng, n),
			Backfill:  rng.Intn(2) == 0,
			Recompute: rng.Intn(2) == 0,
		})
	}
}

// TestBlockMatchesSlotAccurateWithReleases pins the executors'
// equivalence on release-date instances specifically: every coflow has
// a strictly positive release and the staggering is wide relative to
// the demand, so stages routinely start idle, wait mid-plan for a
// member's release, or straddle a release boundary — exactly the
// block-arithmetic corners (wait-then-serve, partial blocks) where a
// per-term executor could drift from the slot-by-slot oracle.
func TestBlockMatchesSlotAccurateWithReleases(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	for trial := 0; trial < 100; trial++ {
		m := 1 + rng.Intn(4)
		n := 1 + rng.Intn(5)
		ins := randomInstance(rng, m, n, 4, 0)
		for k := range ins.Coflows {
			// Strictly positive, widely staggered releases.
			ins.Coflows[k].Release = 1 + rng.Int63n(40)
		}
		for p := 0; p < 2; p++ { // two random plans per instance
			matchOracle(t, &Plan{
				Ins:       ins,
				Order:     rng.Perm(n),
				Stages:    randomStages(rng, n),
				Backfill:  rng.Intn(2) == 0,
				Recompute: rng.Intn(2) == 0,
			})
		}
	}
}

// Lemma 2: under ANY schedule, the time all of the first k coflows (in
// schedule order) complete is at least V_k.
func TestLemma2LoadLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 100; trial++ {
		m := 1 + rng.Intn(4)
		n := 1 + rng.Intn(6)
		ins := randomInstance(rng, m, n, 8, 0)
		order := rng.Perm(n)
		plan := &Plan{
			Ins: ins, Order: order, Stages: randomStages(rng, n),
			Backfill: rng.Intn(2) == 0, Recompute: rng.Intn(2) == 0,
		}
		res, err := Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		v := lpmodel.MaxTotalLoads(ins, order)
		var prefixMax int64
		for pos, k := range order {
			if res.Completion[k] > prefixMax {
				prefixMax = res.Completion[k]
			}
			if prefixMax < v[pos] {
				t.Fatalf("trial %d: prefix %d completes at %d < V = %d",
					trial, pos, prefixMax, v[pos])
			}
		}
	}
}

// Completion times can never precede release + the coflow's own load.
func TestCompletionRespectsLoadBound(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 100; trial++ {
		m := 1 + rng.Intn(4)
		n := 1 + rng.Intn(6)
		ins := randomInstance(rng, m, n, 8, 6)
		plan := &Plan{
			Ins: ins, Order: rng.Perm(n), Stages: randomStages(rng, n),
			Backfill: true, Recompute: rng.Intn(2) == 0,
		}
		res, err := Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		for k := range ins.Coflows {
			c := &ins.Coflows[k]
			min := c.Release + c.Load(m)
			if res.Completion[k] < min {
				t.Fatalf("trial %d: coflow %d completes at %d < release+ρ = %d",
					trial, k, res.Completion[k], min)
			}
		}
	}
}

// Backfilling can only help (or leave unchanged) the total weighted
// completion time when the rest of the plan is fixed.
func TestBackfillNeverHurtsTotal(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for trial := 0; trial < 60; trial++ {
		m := 1 + rng.Intn(4)
		n := 2 + rng.Intn(5)
		ins := randomInstance(rng, m, n, 6, 0)
		order := rng.Perm(n)
		stages := randomStages(rng, n)
		off, err := Execute(&Plan{Ins: ins, Order: order, Stages: stages})
		if err != nil {
			t.Fatal(err)
		}
		on, err := Execute(&Plan{Ins: ins, Order: order, Stages: stages, Backfill: true})
		if err != nil {
			t.Fatal(err)
		}
		for k := range off.Completion {
			if on.Completion[k] > off.Completion[k] {
				t.Fatalf("trial %d: backfill delayed coflow %d: %d > %d",
					trial, k, on.Completion[k], off.Completion[k])
			}
		}
	}
}

func TestWeightedCompletionHelper(t *testing.T) {
	ins := inst(1,
		cf(1, 2, 0, matrix.MustFromRows([][]int64{{1}})),
		cf(2, 3, 0, matrix.MustFromRows([][]int64{{1}})))
	got := WeightedCompletion(ins, []int64{4, 5})
	if got != 2*4+3*5 {
		t.Fatalf("WeightedCompletion = %g, want 23", got)
	}
}

func TestStageHelpers(t *testing.T) {
	if err := checkStages(SingleStage(3), 3); err != nil {
		t.Fatal(err)
	}
	if err := checkStages(OneStage(5), 5); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExecuteGrouped40x30(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	ins := randomInstance(rng, 30, 40, 50, 0)
	plan := &Plan{Ins: ins, Order: rng.Perm(40), Stages: OneStage(40), Backfill: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Execute(plan); err != nil {
			b.Fatal(err)
		}
	}
}
