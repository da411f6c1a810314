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
//	decompose  one whole Decompose call
//	augment    Step 1 (balance D to D̃ with all sums = ρ)
//	extract    Step 2 of one decomposition (every term's matching
//	           extraction and subtraction)
type Obs struct {
	DecomposeSeconds *obs.Histogram
	AugmentSeconds   *obs.Histogram
	ExtractSeconds   *obs.Histogram

	Decomposes *obs.Counter
	Terms      *obs.Counter

	// Term-buffer pool effectiveness of the reusable Decomposer:
	// TermReuses counts extractions served from the recycled
	// permutation-buffer pool, TermAllocs the pool-growth allocations.
	// Their ratio is the term-reuse hit rate; a warm Decomposer sits at
	// 100% reuse (the 0 allocs/op steady state).
	TermReuses *obs.Counter
	TermAllocs *obs.Counter

	// UpdateFallbacks is never registered and reads 0: a Decomposer
	// has no repair step to fall back from. Only the benchmark harness
	// reads it (benchmark/replay.go:505), which is why it stays, as
	// core.Options.SparseLP does.
	UpdateFallbacks *obs.Counter

	// Matcher is threaded into every decomposition's Hopcroft–Karp
	// engine, counting its solves and phases.
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
// and returns the wired Obs, including the matcher counters. A
// nil registry yields the zero Obs.
func NewObs(r *obs.Registry) Obs {
	return Obs{
		DecomposeSeconds: r.Histogram("coflow_bvn_decompose_seconds", "latency of one Birkhoff-von Neumann decomposition", obs.LatencyBuckets),
		AugmentSeconds:   r.Histogram("coflow_bvn_augment_seconds", "latency of the augmentation stage (step 1)", obs.LatencyBuckets),
		ExtractSeconds:   r.Histogram("coflow_bvn_extract_seconds", "latency of Step 2 of one decomposition (all term extractions)", obs.LatencyBuckets),
		Decomposes:       r.Counter("coflow_bvn_decompositions_total", "decompositions run"),
		Terms:            r.Counter("coflow_bvn_terms_total", "permutation terms extracted"),
		TermReuses:       r.Counter("coflow_bvn_term_buffer_reuses_total", "extractions served from the recycled permutation-buffer pool"),
		TermAllocs:       r.Counter("coflow_bvn_term_buffer_allocs_total", "permutation-buffer pool growth allocations"),
		Matcher:          matching.NewObs(r),
	}
}
