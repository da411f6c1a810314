// Package core implements the paper's primary contribution: the first
// polynomial-time constant-factor approximation algorithms for
// minimizing total weighted coflow completion time with release dates.
//
//   - Algorithm2 is the deterministic 67/3-approximation (64/3 for
//     zero release dates): solve the interval-indexed LP, order coflows
//     by the approximated completion times C̄_k (Eq. 14/15), group
//     consecutive coflows whose maximum total loads V_k (Eq. 16) fall
//     in the same geometric interval (τ_{s−1}, τ_s], and clear each
//     group as one aggregated coflow with a Birkhoff–von Neumann
//     schedule.
//   - Randomized is the (9 + 16√2/3)-approximation: identical except
//     the grouping intervals are τ′_l = T₀·a^(l−1) with a = 1+√2 and
//     T₀ ~ Unif[1, a).
//   - Schedule exposes the full §4 design space — three orderings
//     (H_A, H_ρ, H_LP) × {grouping, backfilling} — used to reproduce
//     Table 1 and Figure 2.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"coflow/internal/bvn"
	"coflow/internal/coflowmodel"
	"coflow/internal/lpmodel"
	"coflow/internal/switchsim"
)

// Ordering selects the §4.1 ordering stage.
type Ordering int

const (
	// OrderArrival is H_A: coflows in trace (ID) order.
	OrderArrival Ordering = iota
	// OrderLoadWeight is H_ρ: nondecreasing ρ(D(k))/w_k, the ordering
	// also used by Varys-style heuristics.
	OrderLoadWeight
	// OrderLP is H_LP: nondecreasing LP completion times C̄_k (15).
	OrderLP
)

func (o Ordering) String() string {
	switch o {
	case OrderArrival:
		return "HA"
	case OrderLoadWeight:
		return "Hrho"
	case OrderLP:
		return "HLP"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// Options selects one of the paper's 12 algorithm combinations, plus
// the work-conserving Recompute extension (off in the paper).
type Options struct {
	Ordering  Ordering
	Grouping  bool
	Backfill  bool
	Recompute bool
	// ThickMatchings switches Step 2's matching extraction to the
	// bottleneck rule (bvn.StrategyThick): identical ρ-slot schedules
	// from roughly an order of magnitude fewer distinct matchings,
	// which matters when each matching is a fabric reconfiguration.
	ThickMatchings bool
	// SparseLP is read by nothing: the H_LP ordering LP is always
	// solved by the sparse pipeline. The field stays declared only
	// because benchmark/batch.go sets it and this round may not edit
	// benchmark/; the next benchmark PR drops it from both places.
	SparseLP bool
}

// Label renders the option set in the paper's naming: ordering plus
// case (a)–(d).
func (o Options) Label() string {
	c := "a"
	switch {
	case o.Grouping && o.Backfill:
		c = "d"
	case o.Grouping:
		c = "c"
	case o.Backfill:
		c = "b"
	}
	return fmt.Sprintf("%s(%s)", o.Ordering, c)
}

// Result bundles the executed schedule with the policy artifacts that
// produced it.
type Result struct {
	*switchsim.Result
	// Order lists coflow indices in service order.
	Order []int
	// Stages is the grouping used (one stage per coflow if disabled).
	Stages []switchsim.Stage
	// V[pos] is the maximum total load of order prefix 0..pos (Eq. 16).
	V []int64
	// LP is the interval LP solution when the LP ordering was used.
	LP *lpmodel.IntervalSolution
}

// Schedule runs the selected ordering and scheduling combination on
// the instance and returns completion times.
func Schedule(ins *coflowmodel.Instance, opts Options) (*Result, error) {
	var lpSol *lpmodel.IntervalSolution
	var order []int
	switch opts.Ordering {
	case OrderArrival:
		order = arrivalOrder(ins)
	case OrderLoadWeight:
		order = LoadWeightOrder(ins)
	case OrderLP:
		sol, err := lpmodel.SolveIntervalLP(ins)
		if err != nil {
			return nil, err
		}
		lpSol = sol
		order = sol.Order
	default:
		return nil, fmt.Errorf("core: unknown ordering %v", opts.Ordering)
	}

	res, err := ExecuteOrdered(ins, order, opts)
	if err != nil {
		return nil, err
	}
	res.LP = lpSol
	return res, nil
}

// orderedPlan builds the executable plan for an externally supplied
// order — stages from the cumulative loads V (geometric groups or one
// stage per coflow), BvN strategy and backfill rules from opts — and
// returns V alongside it.
func orderedPlan(ins *coflowmodel.Instance, order []int, opts Options) (*switchsim.Plan, []int64) {
	v := lpmodel.MaxTotalLoads(ins, order)
	stages := switchsim.SingleStage(len(order))
	if opts.Grouping {
		stages = GeometricStages(v)
	}
	strategy := bvn.StrategyFirst
	if opts.ThickMatchings {
		strategy = bvn.StrategyThick
	}
	return &switchsim.Plan{
		Ins:       ins,
		Order:     order,
		Stages:    stages,
		Backfill:  opts.Backfill,
		Recompute: opts.Recompute,
		Strategy:  strategy,
	}, v
}

// ExecuteOrdered runs the scheduling stage (grouping, backfilling,
// BvN execution) for an externally supplied order. opts.Ordering is
// ignored. Experiment harnesses use this to reuse one LP solve across
// the four scheduling cases.
func ExecuteOrdered(ins *coflowmodel.Instance, order []int, opts Options) (*Result, error) {
	plan, v := orderedPlan(ins, order, opts)
	res, err := switchsim.Execute(plan)
	if err != nil {
		return nil, err
	}
	return &Result{Result: res, Order: order, Stages: plan.Stages, V: v}, nil
}

// ExecuteOrderedRecorded is ExecuteOrdered with a unit-level
// transcript of the schedule (slower; for export, display, and
// validation against the formulation's constraints).
func ExecuteOrderedRecorded(ins *coflowmodel.Instance, order []int, opts Options) (*Result, *switchsim.Transcript, error) {
	plan, v := orderedPlan(ins, order, opts)
	res, tr, err := switchsim.ExecuteRecorded(plan)
	if err != nil {
		return nil, nil, err
	}
	return &Result{Result: res, Order: order, Stages: plan.Stages, V: v}, tr, nil
}

// Algorithm2 is the paper's deterministic approximation algorithm
// exactly as written: LP ordering, geometric grouping, no backfilling,
// paper-literal BvN schedules. Guarantee: Σ w_k C_k ≤ (67/3)·OPT, and
// (64/3)·OPT when all release dates are zero (Theorem 1/Corollary 1).
func Algorithm2(ins *coflowmodel.Instance) (*Result, error) {
	return Schedule(ins, Options{Ordering: OrderLP, Grouping: true})
}

// RandomizedAlpha is a = 1 + √2, the base of the randomized grouping
// intervals.
var RandomizedAlpha = 1 + math.Sqrt2

// Randomized runs the randomized variant: LP ordering, then grouping
// by the random intervals (τ′_{l−1}, τ′_l] with τ′_l = T₀·a^(l−1),
// T₀ ~ Unif[1, a). Guarantee: E[Σ w_k C_k] ≤ (9 + 16√2/3)·OPT, and
// (8 + 16√2/3)·OPT with zero release dates (Theorem 2/Corollary 2).
func Randomized(ins *coflowmodel.Instance, rng *rand.Rand) (*Result, error) {
	sol, err := lpmodel.SolveIntervalLP(ins)
	if err != nil {
		return nil, err
	}
	order := sol.Order
	v := lpmodel.MaxTotalLoads(ins, order)
	t0 := 1 + rng.Float64()*(RandomizedAlpha-1)
	stages := RandomGeometricStages(v, t0)
	res, err := switchsim.Execute(&switchsim.Plan{
		Ins: ins, Order: order, Stages: stages,
	})
	if err != nil {
		return nil, err
	}
	return &Result{Result: res, Order: order, Stages: stages, V: v, LP: sol}, nil
}

// arrivalOrder is H_A: sort positions by coflow ID.
func arrivalOrder(ins *coflowmodel.Instance) []int {
	order := make([]int, len(ins.Coflows))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ins.Coflows[order[a]].ID < ins.Coflows[order[b]].ID
	})
	return order
}

// LoadWeightOrder is H_ρ: sort by nondecreasing ρ(D(k))/w_k, ties by
// coflow ID. Exported because the experiment harness reports it as its
// own algorithm family; it lives in lpmodel, which starts the LP from it.
func LoadWeightOrder(ins *coflowmodel.Instance) []int { return lpmodel.LoadWeightOrder(ins) }

// GeometricStages implements Step 2 of Algorithm 2: positions whose
// V_k fall in the same interval (τ_{s−1}, τ_s] (τ_l = 2^(l−1)) form
// one group. V must be nondecreasing (it always is — Eq. 16 takes
// prefix maxima), which makes the groups consecutive runs.
func GeometricStages(v []int64) []switchsim.Stage {
	n := len(v)
	var stages []switchsim.Stage
	start := 0
	for start < n {
		r := geomIndex(v[start])
		end := start + 1
		for end < n && geomIndex(v[end]) == r {
			end++
		}
		stages = append(stages, switchsim.Stage{Start: start, End: end})
		start = end
	}
	return stages
}

// geomIndex returns the smallest l ≥ 1 with v ≤ 2^(l−1); i.e. the
// index of the geometric interval (2^(l−2), 2^(l−1)] containing v.
func geomIndex(v int64) int {
	l := 1
	cap := int64(1)
	for cap < v {
		cap *= 2
		l++
	}
	return l
}

// RandomGeometricStages groups positions by the randomized intervals
// τ′_l = t0·a^(l−1) (τ′_0 = 0): position k joins group r where
// τ′_{r−1} < V_k ≤ τ′_r.
func RandomGeometricStages(v []int64, t0 float64) []switchsim.Stage {
	n := len(v)
	var stages []switchsim.Stage
	start := 0
	for start < n {
		r := randIndex(v[start], t0)
		end := start + 1
		for end < n && randIndex(v[end], t0) == r {
			end++
		}
		stages = append(stages, switchsim.Stage{Start: start, End: end})
		start = end
	}
	return stages
}

// randIndex returns the smallest l ≥ 1 with v ≤ t0·a^(l−1).
func randIndex(v int64, t0 float64) int {
	l := 1
	cap := t0
	for cap < float64(v) {
		cap *= RandomizedAlpha
		l++
	}
	return l
}

// prefixReleaseByStage returns, per position, the maximum release date
// over all positions up to the END of the stage containing it. A stage
// only starts once every member is released, so this (rather than the
// strict prefix max) is the waiting term a completion bound must
// charge; with zero release dates it vanishes and the bounds reduce to
// the paper's 4·V_k and (3/2+√2)·V_k.
func prefixReleaseByStage(ins *coflowmodel.Instance, order []int, stages []switchsim.Stage) []int64 {
	out := make([]int64, len(order))
	var maxR int64
	for _, st := range stages {
		for pos := st.Start; pos < st.End; pos++ {
			if r := ins.Coflows[order[pos]].Release; r > maxR {
				maxR = r
			}
		}
		for pos := st.Start; pos < st.End; pos++ {
			out[pos] = maxR
		}
	}
	return out
}

// Proposition1Bound returns, for each order position k, the
// deterministic guarantee of Eq. 19: (release wait) + 4·V_k.
// Algorithm 2 completions never exceed it.
func Proposition1Bound(ins *coflowmodel.Instance, order []int, stages []switchsim.Stage, v []int64) []int64 {
	rel := prefixReleaseByStage(ins, order, stages)
	out := make([]int64, len(order))
	for pos := range order {
		out[pos] = rel[pos] + 4*v[pos]
	}
	return out
}

// DeterministicRatio and RandomizedRatio are the worst-case guarantees
// proven in Theorems 1 and 2 (release dates allowed), and the
// zero-release variants of Corollaries 1 and 2.
var (
	DeterministicRatio            = 67.0 / 3.0
	DeterministicRatioZeroRelease = 64.0 / 3.0
	RandomizedRatio               = 9 + 16*math.Sqrt2/3
	RandomizedRatioZeroRelease    = 8 + 16*math.Sqrt2/3
)

// AllOptions enumerates the 12 combinations evaluated in §4: three
// orderings × the four scheduling cases (a)–(d).
func AllOptions() []Options {
	var out []Options
	for _, ord := range []Ordering{OrderArrival, OrderLoadWeight, OrderLP} {
		for _, grouping := range []bool{false, true} {
			for _, backfill := range []bool{false, true} {
				out = append(out, Options{Ordering: ord, Grouping: grouping, Backfill: backfill})
			}
		}
	}
	return out
}
