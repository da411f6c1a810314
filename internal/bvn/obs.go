package bvn

import (
	"coflow/internal/matching"
	"coflow/internal/obs"
)

// Obs instruments Algorithm 1. Every field is a nil-safe obs metric,
// so the zero value (the default) is free: each site costs one nil
// check. A Decomposer takes its hooks through Decomposer.SetObs, from
// whoever owns it: the daemon's planner, or switchsim's executor
// (switchsim.Obs.Decompose).
//
// Stage taxonomy:
//
//	decompose  one whole cold Decompose/DecomposeWith call
//	augment    Step 1 (balance D to D̃ with all sums = ρ)
//	extract    Step 2 of one decomposition (every term's matching
//	           extraction and subtraction)
type Obs struct {
	DecomposeSeconds *obs.Histogram
	AugmentSeconds   *obs.Histogram
	ExtractSeconds   *obs.Histogram
	UpdateSeconds    *obs.Histogram

	Decomposes *obs.Counter
	Terms      *obs.Counter

	// Term-buffer pool effectiveness of the reusable Decomposer:
	// TermReuses counts extractions served from the recycled
	// permutation-buffer pool, TermAllocs the pool-growth allocations.
	// Their ratio is the term-reuse hit rate; a warm Decomposer sits at
	// 100% reuse (the 0 allocs/op steady state).
	TermReuses *obs.Counter
	TermAllocs *obs.Counter

	// Incremental-mode effectiveness: Updates counts Decomposer.Update
	// calls, UpdateFallbacks the ones whose greedy term repair could
	// not shed the full load delta and fell back to a cold
	// recomputation of Algorithm 1.
	Updates         *obs.Counter
	UpdateFallbacks *obs.Counter

	// Matcher is threaded into every decomposition's warm-started
	// Hopcroft–Karp engine, exposing its warm-start hit rate. Only a
	// StrategyThick run leaves a matching to start from, so the rate
	// reads 0 where every decomposition is StrategyFirst.
	Matcher matching.Obs
}

// TermReuseHitRate returns TermReuses / (TermReuses + TermAllocs), or
// 0 before any extraction.
func (o *Obs) TermReuseHitRate() float64 {
	r, a := o.TermReuses.Value(), o.TermAllocs.Value()
	if r+a == 0 {
		return 0
	}
	return float64(r) / float64(r+a)
}

// NewObs registers the decomposition metrics on r (prefix coflow_bvn_)
// and returns the wired Obs, including matcher warm-start counters. A
// nil registry yields the zero Obs.
func NewObs(r *obs.Registry) Obs {
	return Obs{
		DecomposeSeconds: r.Histogram("coflow_bvn_decompose_seconds", "latency of one Birkhoff-von Neumann decomposition", obs.LatencyBuckets),
		AugmentSeconds:   r.Histogram("coflow_bvn_augment_seconds", "latency of the augmentation stage (step 1)", obs.LatencyBuckets),
		ExtractSeconds:   r.Histogram("coflow_bvn_extract_seconds", "latency of Step 2 of one decomposition (all term extractions)", obs.LatencyBuckets),
		UpdateSeconds:    r.Histogram("coflow_bvn_update_seconds", "latency of one incremental Decomposer.Update repair", obs.LatencyBuckets),
		Decomposes:       r.Counter("coflow_bvn_decompositions_total", "decompositions run"),
		Terms:            r.Counter("coflow_bvn_terms_total", "permutation terms extracted"),
		TermReuses:       r.Counter("coflow_bvn_term_buffer_reuses_total", "extractions served from the recycled permutation-buffer pool"),
		TermAllocs:       r.Counter("coflow_bvn_term_buffer_allocs_total", "permutation-buffer pool growth allocations"),
		Updates:          r.Counter("coflow_bvn_updates_total", "incremental Decomposer.Update calls"),
		UpdateFallbacks:  r.Counter("coflow_bvn_update_fallbacks_total", "Update calls that fell back to a cold decomposition"),
		Matcher:          matching.NewObs(r),
	}
}
