package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"coflow/internal/bvn"
	"coflow/internal/check"
	"coflow/internal/coflowmodel"
	"coflow/internal/core"
	"coflow/internal/lp"
	"coflow/internal/lpmodel"
	"coflow/internal/matrix"
	"coflow/internal/obs"
	"coflow/internal/switchsim"
	"coflow/internal/trace"
)

// batchWorkload times the offline pipeline: one operation is one
// core.Schedule call, instance in, completion times out. A run cycles
// through a pool of instances drawn from the seed rather than repeating
// one, because schedule time varies by a fifth from instance to
// instance and the reported median has to be steady from seed to seed.
type batchWorkload struct {
	label        string
	ports        int
	coflows      int
	interarrival float64 // mean release gap in slots; 0 releases everything at 0
	pool         int     // distinct instances per run
	opts         core.Options
	checked      int // instances re-run through the recorded executor and validated
	shadowed     int // instances fed to the lower layers directly in the traced run
}

// batchLP is the paper's headline pipeline, H_LP case (d): LP order,
// grouping, backfilling. lpmodel and lp do nine tenths of the work, so
// it shows LP gains and hides BvN ones. 50 ports rather than the
// paper's 150 keeps one schedule near 80 ms, so a run covers the whole
// pool instead of a dozen instances.
func batchLP() *batchWorkload {
	return &batchWorkload{
		label: "batch-lp", ports: 50, coflows: 100, pool: 96,
		opts:    core.Options{Ordering: core.OrderLP, Grouping: true, Backfill: true, SparseLP: true},
		checked: 8, shadowed: 8,
	}
}

// batchGreedy is the same executor behind the H_ρ order, on a larger
// fabric and with Poisson releases: no LP on the timed path, so an LP
// change must not move it, while switchsim, a cold bvn.Decomposer per
// call and matching do the work. It is the only workload on the
// release-date path of the executor. The interval LP is solved once per
// instance in set-up, for the lower bound only.
func batchGreedy() *batchWorkload {
	return &batchWorkload{
		label: "batch-greedy", ports: 100, coflows: 200, interarrival: 50, pool: 96,
		opts:    core.Options{Ordering: core.OrderLoadWeight, Grouping: true, Backfill: true},
		checked: 4, shadowed: 8,
	}
}

func (w *batchWorkload) name() string { return w.label }

// batchInstance is one generated input and what the run learned of it.
type batchInstance struct {
	cfg  trace.Config
	ins  *coflowmodel.Instance
	lb   float64      // interval-LP lower bound on Σ wC
	res  *core.Result // first timed result
	span int          // index of the first traced core.schedule span, -1 if none
}

// generate draws instance i of the pool. The instance seed is a fixed
// function of the run seed, so a seed names its inputs exactly.
func (w *batchWorkload) generate(seed int64, i int) (*batchInstance, error) {
	cfg := trace.DefaultConfig()
	cfg.Ports, cfg.NumCoflows = w.ports, w.coflows
	cfg.MeanInterarrival = w.interarrival
	cfg.Seed = seed*1_000_003 + int64(i)
	ins, err := trace.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: generate instance %d: %w", w.label, i, err)
	}
	ins.SetRandomPermutationWeights(rand.New(rand.NewSource(cfg.Seed)))
	return &batchInstance{cfg: cfg, ins: ins, span: -1}, nil
}

// setup generates the pool, solves the lower-bound LP where the timed
// operation does not solve it itself, and warms the pipeline up.
func (w *batchWorkload) setup(seed int64) ([]*batchInstance, error) {
	pool := make([]*batchInstance, w.pool)
	for i := range pool {
		bi, err := w.generate(seed, i)
		if err != nil {
			return nil, err
		}
		if w.opts.Ordering != core.OrderLP {
			sol, err := lpmodel.SolveIntervalLPWith(bi.ins, lp.MethodSparse)
			if err != nil {
				return nil, fmt.Errorf("%s: lower bound of instance %d: %w", w.label, i, err)
			}
			bi.lb = sol.LowerBound
		}
		pool[i] = bi
	}
	for i := 0; i < 2; i++ {
		if _, err := core.Schedule(pool[i%len(pool)].ins, w.opts); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", w.label, err)
		}
	}
	return pool, nil
}

// schedule runs the timed operation on bi and keeps the first result.
// A repeat must reproduce the first objective exactly: the pipeline is
// deterministic, and a drift here is a failed operation.
func (w *batchWorkload) schedule(bi *batchInstance, o *outcome) (time.Time, time.Time, error) {
	t0 := time.Now()
	res, err := core.Schedule(bi.ins, w.opts)
	t1 := time.Now()
	if err != nil {
		return t0, t1, fmt.Errorf("%s: schedule: %w", w.label, err)
	}
	o.attempt(1)
	switch {
	case bi.res == nil:
		bi.res = res
		if res.LP != nil {
			bi.lb = res.LP.LowerBound
		}
	case res.TotalWeighted != bi.res.TotalWeighted:
		o.fail("%s: instance seed %d scheduled to %v, then to %v", w.label, bi.cfg.Seed, bi.res.TotalWeighted, res.TotalWeighted)
	}
	return t0, t1, nil
}

// measure schedules pool instances in turn for the given time. With a
// tracer every instance is scheduled twice over, once as a span and
// once not, in alternating order, so the cost of tracing is read off
// pairs of runs on the same input.
func (w *batchWorkload) measure(pool []*batchInstance, seconds float64, tr *tracer, o *outcome) (plain, traced *section, err error) {
	plain, traced = &section{}, &section{}
	plain.begin()
	defer plain.end()
	start := time.Now()
	for i := 0; ; i++ {
		bi := pool[i%len(pool)]
		asSpan := []bool{false}
		if tr != nil {
			asSpan = []bool{i%2 == 0, i%2 == 1}
		}
		var end time.Time
		for _, span := range asSpan {
			t0, t1, err := w.schedule(bi, o)
			if err != nil {
				return nil, nil, err
			}
			end = t1
			if !span {
				plain.opSecs = append(plain.opSecs, t1.Sub(t0).Seconds())
				continue
			}
			if idx := tr.add("core.schedule", -1, int64(i), t0, t1); bi.span < 0 {
				bi.span = idx
			}
			traced.opSecs = append(traced.opSecs, t1.Sub(t0).Seconds())
		}
		if end.Sub(start).Seconds() >= seconds {
			return plain, traced, nil
		}
	}
}

func (w *batchWorkload) run(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	pool, _, setupS, err := timeSetup(rc, func() ([]*batchInstance, func(), error) {
		p, err := w.setup(rc.seed)
		return p, nil, err
	})
	if err != nil {
		return nil, err
	}
	plain, traced, err := w.measure(pool, rc.seconds, rc.tr, o)
	if err != nil {
		return nil, err
	}
	wct, err := w.finish(pool, o)
	if err != nil {
		return nil, err
	}
	if rc.tr == nil {
		o.setEndToEnd(setupS, plain, wct)
	} else {
		o.setHarness(plain, traced)
		if err := w.shadow(pool, rc.tr, o); err != nil {
			return nil, err
		}
	}
	return o, w.validate(pool, o)
}

// finish schedules, untimed, whatever part of the pool the timed
// stretch did not reach, and returns Σ wC over the pool's lower bounds:
// the ratio covers the same instances however fast the machine is.
func (w *batchWorkload) finish(pool []*batchInstance, o *outcome) (float64, error) {
	var wc, lb float64
	for _, bi := range pool {
		if bi.res == nil {
			if _, _, err := w.schedule(bi, o); err != nil {
				return 0, err
			}
		}
		wc += bi.res.TotalWeighted
		lb += bi.lb
	}
	o.check(lb > 0 && wc >= lb*(1-1e-9), "%s: Σ wC %v is below its lower bound %v", w.label, wc, lb)
	return wc / lb, nil
}

// validate re-runs the first few instances through the recording
// executor in the order the timed run chose, and holds the transcript
// to the formulation: matchings per slot, release dates, demand served
// exactly once, and completion times equal to the timed run's.
func (w *batchWorkload) validate(pool []*batchInstance, o *outcome) error {
	for _, bi := range pool[:min(w.checked, len(pool))] {
		res, tr, err := core.ExecuteOrderedRecorded(bi.ins, bi.res.Order, w.opts)
		if err != nil {
			return fmt.Errorf("%s: recorded re-run: %w", w.label, err)
		}
		err = switchsim.ValidateTranscript(bi.ins, tr, res.Completion)
		o.check(err == nil, "%s: transcript of instance seed %d: %v", w.label, bi.cfg.Seed, err)
		vs := check.Schedule(bi.ins, check.FromTranscript(tr, res.Result))
		o.check(len(vs) == 0, "%s: instance seed %d: %d violations, first %v", w.label, bi.cfg.Seed, len(vs), first(vs))
		o.check(slices.Equal(res.Completion, bi.res.Completion),
			"%s: instance seed %d: recorded completions differ from the timed run's", w.label, bi.cfg.Seed)
	}
	return nil
}

// first returns vs[0] rendered, or "" for an empty list.
func first(vs []check.Violation) string {
	if len(vs) == 0 {
		return ""
	}
	return vs[0].String()
}

// shadow feeds the first few instances to each lower layer's exported
// functions on their own, since those layers cannot be reached through
// core.Schedule from outside. Each call is recorded as a child of the
// schedule (or layer) span it would sit inside; a per-layer timing is
// the median over the shadowed instances, a count their mean.
func (w *batchWorkload) shadow(pool []*batchInstance, tr *tracer, o *outcome) error {
	reg := obs.NewRegistry()
	lpObs := lp.NewObs(reg)
	lp.SetObs(lpObs)
	defer lp.SetObs(lp.Obs{})
	dc := bvn.NewDecomposer(w.ports)
	bvnObs := bvn.NewObs(reg)
	dc.SetObs(bvnObs)

	shadowed := pool[:min(w.shadowed, len(pool))]
	n := float64(len(shadowed))
	var lpAlloc, lpMallocs, decompose, execute []float64
	for i, bi := range shadowed {
		op := int64(i)
		var err error
		tr.time("trace.generate", -1, op, func() { _, err = trace.Generate(bi.cfg) })
		if err != nil {
			return err
		}

		order := bi.res.Order
		if w.opts.Ordering == core.OrderLP {
			var sol *lpmodel.IntervalSolution
			solve := tr.time("lpmodel.solve", bi.span, op, func() {
				sol, err = lpmodel.SolveIntervalLPWith(bi.ins, lp.MethodSparse)
			})
			if err != nil {
				return err
			}
			o.check(slices.Equal(sol.Order, order), "%s: instance seed %d: LP order differs between two solves", w.label, bi.cfg.Seed)
			o.values["lpmodel.vars"] += float64(sol.Vars) / n
			o.values["lpmodel.rows"] += float64(sol.Rows) / n

			// The LP itself is only reachable through its MPS export.
			var mps bytes.Buffer
			if err := lpmodel.WriteIntervalLPMPS(&mps, bi.ins, "interval"); err != nil {
				return err
			}
			prob, err := lp.ReadMPS(&mps)
			if err != nil {
				return err
			}
			var pre *lp.Presolved
			tr.time("lp.presolve", solve, op, func() { pre, err = lp.Presolve(prob) })
			if err != nil {
				return err
			}
			stats := pre.Stats()
			o.values["lp.presolve_removed"] += float64(stats.Total()) / n

			var before, after runtime.MemStats
			var lpSol *lp.Solution
			runtime.ReadMemStats(&before)
			tr.time("lp.solve", solve, op, func() { lpSol, err = lp.SolveWith(prob, lp.MethodSparse) })
			runtime.ReadMemStats(&after)
			if err != nil {
				return err
			}
			o.check(lpSol.Status == lp.Optimal, "%s: instance seed %d: LP ended %v", w.label, bi.cfg.Seed, lpSol.Status)
			o.values["lp.pivots"] += float64(lpSol.Iterations) / n
			lpAlloc = append(lpAlloc, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			lpMallocs = append(lpMallocs, float64(after.Mallocs-before.Mallocs))
		}

		var v []int64
		var stages []switchsim.Stage
		tr.time("lpmodel.maxloads", bi.span, op, func() { v = lpmodel.MaxTotalLoads(bi.ins, order) })
		tr.time("core.group", bi.span, op, func() { stages = core.GeometricStages(v) })
		o.values["core.stages"] += float64(len(stages)) / n
		coreExec := tr.time("core.execute", bi.span, op, func() { _, err = core.ExecuteOrdered(bi.ins, order, w.opts) })
		if err != nil {
			return err
		}

		var res *switchsim.Result
		t0 := time.Now()
		res, err = switchsim.Execute(&switchsim.Plan{
			Ins: bi.ins, Order: order, Stages: stages, Backfill: w.opts.Backfill, Strategy: bvn.StrategyFirst,
		})
		t1 := time.Now()
		if err != nil {
			return err
		}
		exec := tr.add("switchsim.execute", coreExec, op, t0, t1)
		execute = append(execute, t1.Sub(t0).Seconds()*1e3)
		o.values["switchsim.matchings"] += float64(res.Matchings) / n

		// The executor decomposes each stage's aggregate demand with one
		// held Decomposer; do the same over the same matrices.
		var decSecs float64
		for _, st := range stages {
			d := matrix.NewSquare(w.ports)
			for _, k := range order[st.Start:st.End] {
				for _, f := range bi.ins.Coflows[k].Flows {
					d.Add(f.Src, f.Dst, f.Size)
				}
			}
			if d.IsZero() {
				continue
			}
			var dec *bvn.Decomposition
			t0 := time.Now()
			dec, err = dc.DecomposeWith(d, bvn.StrategyFirst)
			t1 := time.Now()
			if err != nil {
				return err
			}
			tr.add("bvn.decompose", exec, op, t0, t1)
			decSecs += t1.Sub(t0).Seconds()
			o.values["bvn.terms"] += float64(len(dec.Terms)) / n
		}
		decompose = append(decompose, decSecs*1e3)
	}

	o.values["trace.generate_ms"] = medianOf(tr, "trace.generate", 1e3)
	o.values["lpmodel.solve_ms"] = medianOf(tr, "lpmodel.solve", 1e3)
	o.values["lp.presolve_ms"] = medianOf(tr, "lp.presolve", 1e3)
	o.values["lp.solve_ms"] = medianOf(tr, "lp.solve", 1e3)
	o.values["lpmodel.build_extract_ms"] = max(0, o.values["lpmodel.solve_ms"]-o.values["lp.solve_ms"])
	o.values["lp.alloc_mb"] = median(lpAlloc)
	o.values["lp.mallocs"] = median(lpMallocs)
	o.values["lp.sparse_fallbacks"] = float64(lpObs.SparseFallbacks.Value())
	o.values["lpmodel.maxloads_ms"] = medianOf(tr, "lpmodel.maxloads", 1e3)
	o.values["core.group_ms"] = medianOf(tr, "core.group", 1e3)
	o.values["core.execute_ms"] = medianOf(tr, "core.execute", 1e3)
	o.values["switchsim.execute_ms"] = median(execute)
	o.values["bvn.decompose_ms"] = median(decompose)
	o.values["switchsim.self_ms"] = max(0, median(execute)-median(decompose))
	o.values["bvn.term_reuse_rate"] = bvnObs.TermReuseHitRate()
	o.values["matching.warm_hit_rate"] = bvnObs.Matcher.WarmStartHitRate()
	return nil
}
