// Package switchsim executes coflow schedules on the paper's network
// model: an m×m non-blocking switch where, in each integral time slot,
// the set of served (ingress, egress) pairs must form a matching.
//
// The executor runs a Plan: an ordered list of coflows partitioned
// into consecutive stages (single coflows, or the groups built by
// Algorithm 2). Each stage is cleared with the matchings of a
// Birkhoff–von Neumann decomposition; within a matched port pair,
// data units are served in coflow order, and optional backfilling
// pulls units from subsequent coflows into slots the decomposition
// would otherwise leave idle (§4.1 of the paper).
//
// There is one executor. It processes whole BvN terms, q slots at a
// time: a matched pair serves up to q units in one step. A stage is
// served one ingress port at a time, that port's pairs through every
// term in order. Execute returns the completion times; ExecuteRecorded
// runs the same code and also appends every served unit to a
// transcript, grouped by stage, then by ingress port; each pair's units
// in slot order. The tests check the block arithmetic against a
// slot-by-slot walk (slotOracle).
//
// Both entry points run on a resident executor borrowed from a package
// store that garbage collection does not empty: its queues, stage
// matrix and bvn.Decomposer are grown, not reallocated, from one plan
// to the next, and a call allocates only what it returns. A schedule is still a
// function of the plan alone: loading a plan re-zeroes every array, and
// a Decomposer keeps storage, never a matching, between decompositions.
package switchsim

import (
	"fmt"
	"runtime"
	"slices"

	"coflow/internal/bvn"
	"coflow/internal/coflowmodel"
	"coflow/internal/matrix"
)

// Stage is a run of consecutive positions [Start, End) in the plan's
// order, scheduled together as one aggregated coflow.
type Stage struct {
	Start, End int
}

// Plan describes one complete scheduling policy instantiation.
type Plan struct {
	// Ins is the instance being scheduled.
	Ins *coflowmodel.Instance
	// Order lists coflow indices (into Ins.Coflows) in service order.
	Order []int
	// Stages partitions positions 0..len(Order)-1 into consecutive
	// runs; each stage is aggregated and cleared by one BvN schedule.
	Stages []Stage
	// Backfill, when set, lets a matched pair with spare slots serve
	// flows of subsequent coflows on the same pair, in order.
	Backfill bool
	// Recompute, when set, decomposes the *remaining* demand of a
	// stage when it starts (work-conserving extension). When unset the
	// paper-literal schedule is used: the stage's original demand is
	// decomposed even if backfilling already served part of it.
	Recompute bool
	// Strategy is read by nothing: a stage is decomposed by the one
	// extraction rule of Algorithm 1. It stays declared only because
	// benchmark/batch.go sets it (see bvn.Strategy).
	Strategy bvn.Strategy
}

// Result reports the outcome of executing a plan.
type Result struct {
	// Completion[k] is the completion slot of Ins.Coflows[k]: the
	// index of the slot in which its last unit was transferred, or its
	// release date if it has no demand.
	Completion []int64
	// TotalWeighted is Σ_k w_k·Completion[k].
	TotalWeighted float64
	// Makespan is the largest completion time.
	Makespan int64
	// Matchings is the number of distinct BvN terms scheduled.
	Matchings int
	// Slots is the total number of slots spanned by the schedule,
	// including any forced idle waiting for releases.
	Slots int64
}

// pairItem is one coflow's aggregated demand on a single port pair.
type pairItem struct {
	pos       int // position in plan order
	coflow    int // index into Ins.Coflows
	remaining int64
}

type executor struct {
	plan *Plan
	m    int
	// items holds every pair's queue back to back, each in order
	// position; pair i*m+j owns items[qStart[pair]:qStart[pair+1]].
	items   []pairItem
	qStart  []int
	head    []int   // first possibly-unfinished queue item per pair
	drained []bool  // per pair: head reached the queue's end, for good: not served again
	lastSrv []int64 // per coflow: last slot any unit was served
	remain  []int64 // per coflow: total remaining units
	seen    []bool  // per coflow: load's permutation check
	// stage is the one demand matrix every stage is built in, and dec
	// the BvN engine that decomposes it; both are replaced only when a
	// plan with another port count is loaded.
	stage *matrix.Matrix
	dec   *bvn.Decomposer
	// tr, when not nil, receives every unit servePair serves.
	tr *Transcript
}

// executors holds the idle resident executors: newExecutor takes one,
// or builds one when none is idle, and release keeps it if a slot is
// free, else drops it. Unlike a sync.Pool, it is not emptied by garbage
// collection, so queues and Decomposer are not rebuilt after every
// cycle. The price is retention: at most GOMAXPROCS idle executors,
// each as large as the largest plan it has run.
var executors = make(chan *executor, runtime.GOMAXPROCS(0))

// grow returns s resliced to n zeroed elements, allocating only when
// its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// newExecutor takes an executor from the store and loads plan into it.
// The caller releases it on every path.
func newExecutor(plan *Plan) (*executor, error) {
	var e *executor
	select {
	case e = <-executors:
	default:
		e = new(executor)
	}
	if err := e.load(plan); err != nil {
		e.release()
		return nil, err
	}
	return e, nil
}

// release returns e to the store holding nothing of the caller's.
func (e *executor) release() {
	e.plan, e.tr = nil, nil
	select {
	case executors <- e:
	default:
	}
}

// load checks plan and rebuilds e's state for it in the storage the
// previous plan left, of which nothing stays visible.
func (e *executor) load(plan *Plan) error {
	ins := plan.Ins
	if err := ins.Validate(); err != nil {
		return err
	}
	n := len(ins.Coflows)
	if len(plan.Order) != n {
		return fmt.Errorf("switchsim: order has %d entries, instance has %d coflows", len(plan.Order), n)
	}
	e.seen = grow(e.seen, n)
	for _, k := range plan.Order {
		if k < 0 || k >= n || e.seen[k] {
			return fmt.Errorf("switchsim: order is not a permutation of coflow indices")
		}
		e.seen[k] = true
	}
	if err := checkStages(plan.Stages, n); err != nil {
		return err
	}
	m := ins.Ports
	if e.m != m {
		e.m, e.stage, e.dec = m, matrix.NewSquare(m), bvn.NewDecomposer(m)
	}
	e.dec.SetObs(pkgObs.Decompose)
	e.plan = plan
	e.qStart = grow(e.qStart, m*m+1)
	e.head = grow(e.head, m*m)
	e.drained = grow(e.drained, m*m)
	e.lastSrv = grow(e.lastSrv, n)
	e.remain = grow(e.remain, n)
	for k := range e.lastSrv {
		e.lastSrv[k] = -1
	}
	// Build the per-pair queues by counting sort. Positions are visited
	// in order, so each queue comes out sorted and a coflow's duplicate
	// (src,dst) flows meet its own item at the queue's tail and merge
	// into it. Pass 1 sizes the queues, with head marking the last
	// position counted per pair; pass 2 fills them, with head counting
	// the items placed; head is handed over zeroed.
	for pos, k := range plan.Order {
		for _, f := range ins.Coflows[k].Flows {
			if pair := f.Src*m + f.Dst; f.Size > 0 && e.head[pair] != pos+1 {
				e.head[pair] = pos + 1
				e.qStart[pair+1]++
			}
		}
	}
	for pair := range e.head {
		e.qStart[pair+1] += e.qStart[pair]
	}
	clear(e.head)
	e.items = grow(e.items, e.qStart[m*m])
	for pos, k := range plan.Order {
		for _, f := range ins.Coflows[k].Flows {
			if f.Size <= 0 {
				continue
			}
			pair := f.Src*m + f.Dst
			q := e.items[e.qStart[pair]:]
			if n := e.head[pair]; n > 0 && q[n-1].pos == pos {
				q[n-1].remaining += f.Size
			} else {
				q[n] = pairItem{pos: pos, coflow: k, remaining: f.Size}
				e.head[pair]++
			}
			e.remain[k] += f.Size
		}
	}
	clear(e.head)
	return nil
}

// queue returns pair's items, in order position.
func (e *executor) queue(pair int) []pairItem {
	return e.items[e.qStart[pair]:e.qStart[pair+1]]
}

func checkStages(stages []Stage, n int) error {
	want := 0
	for _, st := range stages {
		if st.Start != want || st.End <= st.Start {
			return fmt.Errorf("switchsim: stages must partition 0..%d into consecutive runs", n)
		}
		want = st.End
	}
	if want != n {
		return fmt.Errorf("switchsim: stages cover %d of %d positions", want, n)
	}
	return nil
}

// stageMatrix builds the demand to decompose for a stage: the original
// aggregate (paper-literal) or the remaining aggregate (Recompute).
func (e *executor) stageMatrix(st Stage) *matrix.Matrix {
	d := e.stage
	d.Zero()
	if e.plan.Recompute {
		for pair := range e.m * e.m {
			i, j := pair/e.m, pair%e.m
			for _, it := range e.queue(pair) {
				if it.pos >= st.Start && it.pos < st.End && it.remaining > 0 {
					d.Add(i, j, it.remaining)
				}
			}
		}
		return d
	}
	for pos := st.Start; pos < st.End; pos++ {
		k := e.plan.Order[pos]
		for _, f := range e.plan.Ins.Coflows[k].Flows {
			if f.Size > 0 {
				d.Add(f.Src, f.Dst, f.Size)
			}
		}
	}
	return d
}

// servePair serves up to cap units on pair (i,j) starting at absolute
// slot start+1, honouring the plan's service discipline for the stage
// covering positions [stStart, stEnd), and appends the units it
// serves to e.tr when that is set. Returns the number served.
func (e *executor) servePair(pair int, cap int64, start int64, stEnd int) int64 {
	q := e.queue(pair)
	served := int64(0)
	for idx := e.head[pair]; idx < len(q) && served < cap; idx++ {
		it := &q[idx]
		if it.remaining == 0 {
			if idx == e.head[pair] {
				e.head[pair]++
			}
			continue
		}
		if it.pos >= stEnd {
			if !e.plan.Backfill {
				break
			}
			if e.plan.Ins.Coflows[it.coflow].Release > start {
				continue // not yet released; try later coflows
			}
		}
		take := cap - served
		if take > it.remaining {
			take = it.remaining
		}
		it.remaining -= take
		e.remain[it.coflow] -= take
		served += take
		// Units on this pair occupy consecutive slots following the
		// units already served in this block.
		last := start + served
		if last > e.lastSrv[it.coflow] {
			e.lastSrv[it.coflow] = last
		}
		if e.tr != nil {
			i, j := pair/e.m, pair%e.m
			for slot := last - take + 1; slot <= last; slot++ {
				e.tr.Services = append(e.tr.Services, UnitService{Slot: slot, Src: i, Dst: j, Coflow: it.coflow})
			}
		}
		if it.remaining == 0 && idx == e.head[pair] {
			e.head[pair]++
		}
	}
	e.drained[pair] = e.head[pair] == len(q)
	return served
}

// Execute runs the plan with block-granularity service and returns
// per-coflow completion times.
func Execute(plan *Plan) (*Result, error) {
	return execute(plan, nil)
}

// execute runs the plan, appending every served unit to tr unless it
// is nil.
func execute(plan *Plan, tr *Transcript) (*Result, error) {
	e, err := newExecutor(plan)
	if err != nil {
		return nil, err
	}
	defer e.release()
	e.tr = tr
	if tr != nil {
		// Every unit of demand is served once: size the transcript now.
		var units int64
		for _, r := range e.remain {
			units += r
		}
		tr.Services = slices.Grow(tr.Services, int(units))
	}
	execSpan := pkgObs.ExecuteSeconds.Start()
	defer execSpan.End()
	var t int64
	matchings := 0
	for _, st := range plan.Stages {
		// Algorithm 2 schedules a group once all its members are
		// released.
		for pos := st.Start; pos < st.End; pos++ {
			if r := plan.Ins.Coflows[plan.Order[pos]].Release; r > t {
				t = r
			}
		}
		d := e.stageMatrix(st)
		if d.IsZero() {
			continue
		}
		stageSpan := pkgObs.StageSeconds.Start()
		// The terms alias the Decomposer's recycled buffers: they are
		// served before the next stage's Decompose overwrites them.
		dec, err := e.dec.Decompose(d)
		if err != nil {
			stageSpan.End()
			return nil, err
		}
		// A pair's service depends only on its own queue and on the
		// blocks it is matched in, and the per-coflow effects commute,
		// so the stage is served one ingress row at a time: the row's
		// queues stay in cache across the terms. tu is the start of
		// term's block and advances on every term, matched or not.
		for i := range e.m {
			tu := t
			for _, term := range dec.Terms {
				if j := term.Perm.To[i]; j != matrix.Unmatched && !e.drained[i*e.m+j] {
					e.servePair(i*e.m+j, term.Count, tu, st.End)
				}
				tu += term.Count
			}
		}
		for _, term := range dec.Terms {
			t += term.Count
			matchings++
		}
		stageSpan.End()
		pkgObs.Stages.Inc()
	}
	pkgObs.Executes.Inc()
	pkgObs.Matchings.Add(int64(matchings))
	return e.finish(t, matchings)
}

func (e *executor) finish(t int64, matchings int) (*Result, error) {
	ins := e.plan.Ins
	res := &Result{
		Completion: make([]int64, len(ins.Coflows)),
		Matchings:  matchings,
		Slots:      t,
	}
	for k := range ins.Coflows {
		if e.remain[k] != 0 {
			return nil, fmt.Errorf("switchsim: coflow %d has %d unserved units after schedule end",
				ins.Coflows[k].ID, e.remain[k])
		}
		c := e.lastSrv[k]
		if c < 0 {
			c = ins.Coflows[k].Release // empty coflow completes on release
		}
		res.Completion[k] = c
		res.TotalWeighted += ins.Coflows[k].Weight * float64(c)
		if c > res.Makespan {
			res.Makespan = c
		}
	}
	return res, nil
}

// SingleStage returns the stage list for per-position scheduling
// (every coflow its own stage: the "without grouping" cases).
func SingleStage(n int) []Stage {
	out := make([]Stage, n)
	for i := range out {
		out[i] = Stage{Start: i, End: i + 1}
	}
	return out
}

// OneStage returns a single stage covering all n positions.
func OneStage(n int) []Stage {
	return []Stage{{Start: 0, End: n}}
}

// WeightedCompletion recomputes Σ w_k·C_k for an instance from a
// completion vector.
func WeightedCompletion(ins *coflowmodel.Instance, completion []int64) float64 {
	var s float64
	for k := range ins.Coflows {
		s += ins.Coflows[k].Weight * float64(completion[k])
	}
	return s
}
