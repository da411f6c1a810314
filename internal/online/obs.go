package online

import "coflow/internal/obs"

// Obs is the per-stage instrumentation of the slot pipeline. Every
// field is a nil-safe obs metric, so the zero Obs is the disabled
// mode: Step pays one nil check per site and nothing else (the
// TestStepDoesNotAllocate and make-check overhead gates enforce
// this). Wire it with NewObs against a live registry, or leave the
// State's zero value for uninstrumented use.
//
// Stage taxonomy (see DESIGN.md "Observability"):
//
//	step    the whole Step call
//	sort    prioritizeList: priority recompute + sorted-check (+ sort)
//	match   the greedy matching scan of a serving slot
type Obs struct {
	// Stage timers.
	StepSeconds  *obs.Histogram
	SortSeconds  *obs.Histogram
	MatchSeconds *obs.Histogram

	// Outcome counters. Steps counts every Step call; IdleSteps the
	// ones with no eligible coflow (every other step runs the matching
	// scan once). SortSkips counts sorts short-circuited by the
	// sorted-check; SaturationExits counts scans that stopped early
	// because all m ports were matched.
	Steps           *obs.Counter
	IdleSteps       *obs.Counter
	SortSkips       *obs.Counter
	SaturationExits *obs.Counter

	// Work counters.
	UnitsServed      *obs.Counter
	CoflowsCompleted *obs.Counter
}

// NewObs registers the slot-pipeline metrics on r (prefix
// coflow_step_) and returns the wired Obs. A nil registry yields the
// zero (disabled) Obs.
func NewObs(r *obs.Registry) Obs {
	return Obs{
		StepSeconds:  r.Histogram("coflow_step_seconds", "latency of one scheduling step", obs.LatencyBuckets),
		SortSeconds:  r.Histogram("coflow_step_sort_seconds", "latency of the priority sort stage (SEBF sort / sorted-check)", obs.LatencyBuckets),
		MatchSeconds: r.Histogram("coflow_step_match_seconds", "latency of the greedy matching scan stage", obs.LatencyBuckets),

		Steps:           r.Counter("coflow_steps_total", "scheduling steps taken"),
		IdleSteps:       r.Counter("coflow_step_idle_total", "steps with no eligible coflow"),
		SortSkips:       r.Counter("coflow_step_sort_skips_total", "priority sorts skipped by the sorted-check"),
		SaturationExits: r.Counter("coflow_step_saturation_exits_total", "matching scans stopped early with all ports matched"),

		UnitsServed:      r.Counter("coflow_units_served_total", "data units transferred"),
		CoflowsCompleted: r.Counter("coflow_completions_total", "coflows completed by the scheduler"),
	}
}

// SetObs installs the instrumentation hooks. The zero Obs disables
// them. Call between steps, not concurrently with Step.
func (s *State) SetObs(o Obs) { s.obs = o }

// pkgObs is the default instrumentation inherited by the State the
// batch driver (Simulate) creates internally; the zero value disables
// it. Long-lived owners like the daemon wire their State explicitly
// with SetObs instead.
var pkgObs Obs

// SetDefaultObs installs instrumentation for batch simulations. Call
// once at startup (not synchronized against concurrent simulations);
// the zero Obs restores the disabled default.
func SetDefaultObs(o Obs) { pkgObs = o }

// WarmStartHitRate reads 0: Step has no warm-start path, every serving
// slot runs the matching scan. It stays only because the benchmark
// harness still reports it as online.warm_hit_rate.
func (o *Obs) WarmStartHitRate() float64 { return 0 }
