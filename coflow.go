// Package coflow is a library for coflow scheduling in datacenter
// networks, reproducing "Minimizing the Total Weighted Completion Time
// of Coflows in Datacenter Networks" (Qiu, Stein, Zhong — SPAA 2015).
//
// A coflow is a collection of parallel flows with a shared completion
// semantic: it finishes when its last flow finishes. The network is an
// m×m non-blocking switch; in each time slot the served port pairs
// must form a matching. Given n weighted coflows with release dates,
// the goal is to minimize Σ w_k·C_k.
//
// The package exposes:
//
//   - the data model (Coflow, Instance) with JSON serialization;
//   - Algorithm2, the paper's deterministic 67/3-approximation
//     (64/3 with zero release dates), and Randomized, the
//     (9 + 16√2/3)-approximation;
//   - Schedule, the full heuristic design space of the paper's
//     evaluation: orderings H_A, H_ρ, H_LP crossed with coflow
//     grouping and backfilling;
//   - LP lower bounds (interval-indexed and time-indexed) via
//     LowerBound and TimeIndexedLowerBound;
//   - a synthetic Facebook-like workload generator (GenerateTrace);
//   - the Birkhoff–von Neumann decomposition (Decompose) for clearing
//     a single coflow in exactly ρ(D) slots.
//
// # Quick start
//
//	ins := &coflow.Instance{
//	    Ports: 2,
//	    Coflows: []coflow.Coflow{{
//	        ID: 1, Weight: 1,
//	        Flows: []coflow.Flow{
//	            {Src: 0, Dst: 0, Size: 1}, {Src: 0, Dst: 1, Size: 2},
//	            {Src: 1, Dst: 0, Size: 2}, {Src: 1, Dst: 1, Size: 1},
//	        },
//	    }},
//	}
//	res, err := coflow.Algorithm2(ins)
//	// res.Completion[0] == 3: the coflow's load ρ(D), which is optimal.
//
// Everything is implemented with the Go standard library only,
// including the LP solver (presolve + a sparse two-phase revised
// simplex; a dense tableau is kept as its test reference and fallback).
package coflow

import (
	"math/rand"

	"coflow/internal/bvn"
	"coflow/internal/coflowmodel"
	"coflow/internal/core"
	"coflow/internal/lpmodel"
	"coflow/internal/matrix"
	"coflow/internal/online"
	"coflow/internal/primaldual"
	"coflow/internal/trace"
	"coflow/internal/varys"
)

// Flow is one point-to-point transfer: Size data units from ingress
// port Src to egress port Dst.
type Flow = coflowmodel.Flow

// Coflow is a collection of parallel flows with a weight and a release
// date; it completes when its last flow finishes.
type Coflow = coflowmodel.Coflow

// Instance is a scheduling problem: an m-port switch plus n coflows.
type Instance = coflowmodel.Instance

// Result is an executed schedule: completion times, the total weighted
// completion time, the coflow order and grouping used, and (for
// LP-based runs) the LP relaxation artifacts.
type Result = core.Result

// Options selects an ordering (H_A, H_ρ, or H_LP) and the scheduling
// stage flags (grouping, backfilling, and the work-conserving
// Recompute extension).
type Options = core.Options

// Ordering identifies the ordering heuristics of the paper's §4.
type Ordering = core.Ordering

// The three orderings evaluated in the paper.
const (
	OrderArrival    = core.OrderArrival
	OrderLoadWeight = core.OrderLoadWeight
	OrderLP         = core.OrderLP
)

// Proven approximation ratios (Theorems 1–2, Corollaries 1–2).
var (
	DeterministicRatio            = core.DeterministicRatio
	DeterministicRatioZeroRelease = core.DeterministicRatioZeroRelease
	RandomizedRatio               = core.RandomizedRatio
	RandomizedRatioZeroRelease    = core.RandomizedRatioZeroRelease
)

// Algorithm2 runs the paper's deterministic approximation algorithm:
// LP ordering + geometric grouping + Birkhoff–von Neumann schedules.
// The ordering LP is always solved by the sparse pipeline.
func Algorithm2(ins *Instance) (*Result, error) { return core.Algorithm2(ins) }

// Randomized runs the randomized variant, drawing the grouping
// intervals τ′_l = T₀·(1+√2)^(l−1) with T₀ ~ Unif[1, 1+√2).
func Randomized(ins *Instance, rng *rand.Rand) (*Result, error) {
	return core.Randomized(ins, rng)
}

// Schedule runs an arbitrary combination from the paper's evaluation
// design space.
func Schedule(ins *Instance, opts Options) (*Result, error) {
	return core.Schedule(ins, opts)
}

// LowerBound solves the polynomial interval-indexed LP relaxation and
// returns a lower bound on the optimal total weighted completion time
// (Lemma 1): the same LP, solved by the same sparse pipeline, that
// Algorithm2 orders by.
func LowerBound(ins *Instance) (float64, error) {
	sol, err := lpmodel.SolveIntervalLP(ins)
	if err != nil {
		return 0, err
	}
	return sol.LowerBound, nil
}

// TimeIndexedLowerBound solves the pseudo-polynomial (LP-EXP)
// relaxation, a tighter lower bound; it errors on instances whose
// horizon makes the program too large.
func TimeIndexedLowerBound(ins *Instance) (float64, error) {
	sol, err := lpmodel.SolveTimeIndexedLP(ins)
	if err != nil {
		return 0, err
	}
	return sol.LowerBound, nil
}

// Matrix is a dense non-negative integer matrix (a coflow demand).
type Matrix = matrix.Matrix

// NewMatrix returns a zeroed m×m demand matrix.
func NewMatrix(m int) *Matrix { return matrix.NewSquare(m) }

// CoflowFromMatrix builds a Coflow from a dense demand matrix.
func CoflowFromMatrix(id int, weight float64, release int64, d *Matrix) Coflow {
	return coflowmodel.FromMatrix(id, weight, release, d)
}

// Decomposition is an integer Birkhoff–von Neumann decomposition:
// weighted permutation matrices summing to an augmented matrix whose
// every row and column sums to ρ(D).
type Decomposition = bvn.Decomposition

// Decompose runs Algorithm 1 on a demand matrix: scheduling the
// returned matchings for their counts clears D in exactly ρ(D) slots
// (Lemma 4), which is optimal for a coflow alone in the network.
func Decompose(d *Matrix) (*Decomposition, error) {
	dec, err := bvn.NewDecomposer(d.Rows()).Decompose(d)
	if err != nil {
		return nil, err
	}
	return dec.Clone(), nil
}

// Decomposer is the reusable, zero-allocation engine behind Decompose
// for a fixed port count: it owns all scratch (working matrix,
// warm-started matcher, recycled permutation buffers) across calls.
// Results alias its recycled storage; see the type's documentation.
type Decomposer = bvn.Decomposer

// NewDecomposer returns a Decomposer for m×m demand matrices. Callers
// that decompose repeatedly (schedulers, simulators) should hold one
// per switch instead of calling Decompose in a loop.
func NewDecomposer(m int) *Decomposer { return bvn.NewDecomposer(m) }

// TraceConfig parameterizes the synthetic Facebook-like workload
// generator.
type TraceConfig = trace.Config

// DefaultTraceConfig is the paper-scale (150-port) generator setup.
func DefaultTraceConfig() TraceConfig { return trace.DefaultConfig() }

// BenchTraceConfig is a scaled-down (50-port) setup whose LP solves in
// seconds.
func BenchTraceConfig() TraceConfig { return trace.BenchConfig() }

// GenerateTrace produces a synthetic workload instance (deterministic
// in cfg.Seed). Weights default to 1; use the Instance weight helpers
// to install an experiment weighting.
func GenerateTrace(cfg TraceConfig) (*Instance, error) { return trace.Generate(cfg) }

// ReadInstance loads and validates an instance from a JSON file.
func ReadInstance(path string) (*Instance, error) { return coflowmodel.ReadFile(path) }

// --- Extensions beyond the paper's evaluated algorithms -------------

// PrimalDualOrder computes an LP-free coflow ordering with the
// reverse-greedy primal-dual rule (the concurrent-open-shop
// 2-approximation of Mastrolilli et al., adapted to ports); the
// paper's conclusion proposes exactly this direction. Use with
// ScheduleOrdered.
func PrimalDualOrder(ins *Instance) []int { return primaldual.Order(ins) }

// ScheduleOrdered runs the scheduling stage (grouping, backfilling,
// BvN execution) on an externally supplied order; opts.Ordering is
// ignored.
func ScheduleOrdered(ins *Instance, order []int, opts Options) (*Result, error) {
	return core.ExecuteOrdered(ins, order, opts)
}

// FluidResult is the outcome of the rate-based (fluid) scheduler;
// completion times are real-valued.
type FluidResult = varys.Result

// FluidSchedule runs the Varys-style weighted SEBF + MADD rate-based
// scheduler: ports split capacity fractionally instead of forming
// integral matchings.
func FluidSchedule(ins *Instance) (*FluidResult, error) { return varys.Simulate(ins) }

// OnlinePolicy selects the priority used by the per-slot online
// scheduler.
type OnlinePolicy = online.Policy

// Online priorities.
const (
	OnlineFIFO = online.FIFO
	OnlineSEBF = online.SEBF
	OnlineWSPT = online.WSPT
)

// OnlineResult is the outcome of the online greedy scheduler.
type OnlineResult = online.Result

// OnlineSchedule runs the slot-by-slot online greedy scheduler: no LP,
// no lookahead — each slot builds a maximal matching over the live
// demand in priority order.
func OnlineSchedule(ins *Instance, policy OnlinePolicy) (*OnlineResult, error) {
	return online.Simulate(ins, policy)
}
