package lp

import "coflow/internal/obs"

// Obs instruments the simplex solvers. Every field is a nil-safe obs
// metric; the zero value (the default) disables them at the cost of
// one nil check per site. Hooks are package-level because callers reach
// the solver through package functions (SolveSparseFrom from lpmodel's
// shared solve path, which core, openshop and experiments all reach;
// SolveWith from the benchmark) and the resident Solver behind them is
// not theirs to configure. Install them once at startup with SetObs.
//
// Stage taxonomy:
//
//	solve          one whole Solve/SolveSparse call
//	setup          tableau construction, including row equilibration
//	equilibration  the row-scaling pass alone (subset of setup)
//	phase1         feasibility phase (minimize artificial sum)
//	phase2         optimality phase (minimize the real objective)
//	presolve       the reduction loop ahead of the revised simplex
//	factorize      one sparse LU (re)factorization of the basis
//	price          one pricing pass (BTRAN + reduced costs)
//	update         one basis change (xB update + eta push)
type Obs struct {
	SolveSeconds         *obs.Histogram
	SetupSeconds         *obs.Histogram
	EquilibrationSeconds *obs.Histogram
	Phase1Seconds        *obs.Histogram
	Phase2Seconds        *obs.Histogram
	PresolveSeconds      *obs.Histogram
	FactorizeSeconds     *obs.Histogram
	PriceSeconds         *obs.Histogram
	UpdateSeconds        *obs.Histogram

	Solves *obs.Counter
	// Pivots counts simplex iterations (phase 1 + phase 2, both
	// solvers).
	Pivots *obs.Counter
	// SparseSolves counts SolveSparse calls (a subset of Solves).
	SparseSolves *obs.Counter
	// SparseFallbacks counts sparse solves that hit numerical
	// breakdown and transparently re-ran on the dense oracle.
	SparseFallbacks *obs.Counter
	// StartInstalled counts the columns of caller-supplied start bases
	// that were seated and kept; StartDiscarded counts the starts that
	// were dropped whole (singular or not primal feasible) for the cold
	// basis.
	StartInstalled *obs.Counter
	StartDiscarded *obs.Counter

	// Rows removed by each of presolve's three reductions, accumulated
	// across solves. Presolve removes no column, so there is no column
	// counter.
	PresolveEmptyRows     *obs.Counter
	PresolveSingletonRows *obs.Counter
	PresolveRedundantRows *obs.Counter
}

// pkgObs is the installed hooks; the zero value disables them.
var pkgObs Obs

// SetObs installs package-wide instrumentation. Call once at startup
// (it is not synchronized against concurrent solves); the zero Obs
// restores the disabled default.
func SetObs(o Obs) { pkgObs = o }

// NewObs registers the solver metrics on r (prefix coflow_lp_) and
// returns the wired Obs. A nil registry yields the zero Obs.
func NewObs(r *obs.Registry) Obs {
	return Obs{
		SolveSeconds:         r.Histogram("coflow_lp_solve_seconds", "latency of one simplex solve", obs.LatencyBuckets),
		SetupSeconds:         r.Histogram("coflow_lp_setup_seconds", "latency of tableau construction", obs.LatencyBuckets),
		EquilibrationSeconds: r.Histogram("coflow_lp_equilibration_seconds", "latency of the row-equilibration pass", obs.LatencyBuckets),
		Phase1Seconds:        r.Histogram("coflow_lp_phase1_seconds", "latency of the feasibility phase", obs.LatencyBuckets),
		Phase2Seconds:        r.Histogram("coflow_lp_phase2_seconds", "latency of the optimality phase", obs.LatencyBuckets),
		PresolveSeconds:      r.Histogram("coflow_lp_presolve_seconds", "latency of the presolve reduction loop", obs.LatencyBuckets),
		FactorizeSeconds:     r.Histogram("coflow_lp_factorize_seconds", "latency of one sparse basis LU factorization", obs.LatencyBuckets),
		PriceSeconds:         r.Histogram("coflow_lp_price_seconds", "latency of one revised-simplex pricing pass", obs.LatencyBuckets),
		UpdateSeconds:        r.Histogram("coflow_lp_update_seconds", "latency of one revised-simplex basis update", obs.LatencyBuckets),

		Solves:          r.Counter("coflow_lp_solves_total", "simplex solves run"),
		Pivots:          r.Counter("coflow_lp_pivots_total", "simplex pivots across all solves"),
		SparseSolves:    r.Counter("coflow_lp_sparse_solves_total", "sparse (presolve + revised simplex) solves run"),
		SparseFallbacks: r.Counter("coflow_lp_sparse_fallbacks_total", "sparse solves that fell back to the dense oracle"),
		StartInstalled:  r.Counter("coflow_lp_start_installed_total", "start-basis columns seated and kept"),
		StartDiscarded:  r.Counter("coflow_lp_start_discarded_total", "start bases dropped for the cold basis"),

		PresolveEmptyRows:     r.Counter("coflow_lp_presolve_empty_rows_total", "empty rows dropped by presolve"),
		PresolveSingletonRows: r.Counter("coflow_lp_presolve_singleton_rows_total", "singleton rows converted to bounds by presolve"),
		PresolveRedundantRows: r.Counter("coflow_lp_presolve_redundant_rows_total", "redundant rows dropped by presolve"),
	}
}
