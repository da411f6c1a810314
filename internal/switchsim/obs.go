package switchsim

import (
	"coflow/internal/bvn"
	"coflow/internal/obs"
)

// Obs instruments the crossbar executors. Every field is a nil-safe
// obs metric; the zero value (the default) disables them. Hooks are
// package-level because Execute is called from many sites (core,
// experiments, the gantt replay); install once at startup with
// SetObs.
//
// Stage taxonomy:
//
//	execute  one whole Execute call
//	stage    clearing one plan stage (release wait excluded):
//	         decompose + serve all its terms
type Obs struct {
	// Decompose instruments the resident executors' Decomposers; each
	// plan load hands it over again, so SetObs reaches them all.
	Decompose bvn.Obs

	ExecuteSeconds *obs.Histogram
	StageSeconds   *obs.Histogram

	Executes  *obs.Counter
	Stages    *obs.Counter
	Matchings *obs.Counter // distinct BvN terms scheduled
}

// pkgObs is the installed hooks; the zero value disables them.
var pkgObs Obs

// SetObs installs package-wide instrumentation. Call once at startup
// (it is not synchronized against concurrent executions); the zero
// Obs restores the disabled default.
func SetObs(o Obs) { pkgObs = o }

// NewObs registers the decomposition metrics (bvn.NewObs) and then the
// executor metrics (prefix coflow_switch_) on r and returns the wired
// Obs. A nil registry yields the zero Obs.
func NewObs(r *obs.Registry) Obs {
	return Obs{
		Decompose:      bvn.NewObs(r),
		ExecuteSeconds: r.Histogram("coflow_switch_execute_seconds", "latency of executing one full plan", obs.LatencyBuckets),
		StageSeconds:   r.Histogram("coflow_switch_stage_seconds", "latency of clearing one plan stage (decompose + serve)", obs.LatencyBuckets),
		Executes:       r.Counter("coflow_switch_executes_total", "plans executed"),
		Stages:         r.Counter("coflow_switch_stages_total", "plan stages cleared"),
		Matchings:      r.Counter("coflow_switch_matchings_total", "distinct BvN matchings scheduled"),
	}
}
