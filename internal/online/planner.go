package online

import (
	"fmt"

	"coflow/internal/bvn"
	"coflow/internal/coflowmodel"
	"coflow/internal/matrix"
)

// Planner maintains a live Birkhoff–von Neumann plan of the aggregate
// remaining demand on an m×m switch. It is the Decomposer-backed
// counterpart of the greedy Step loop: where Step commits to a maximal
// matching per slot, the Planner's Plan is the full Σ qᵤ·Πᵤ expansion
// of Algorithm 1, whose ρ(D) slots are the optimal clearing time of
// the current backlog.
//
// Add, Observe and Shed change the aggregate demand and mark the plan
// dirty; the next Plan runs Algorithm 1 on the whole backlog, and a
// Plan with nothing changed returns the cached result. A published
// plan is therefore always what a fresh Decomposer computes for the
// current demand. The term pool carries over between Plans; no
// matching does, because every decomposition starts from an empty one.
//
// The returned *bvn.Decomposition aliases the Decomposer's recycled
// storage and is valid until the next Plan call. A Planner is NOT
// safe for concurrent use; callers serialize access like they do for
// State (coflowd runs both inside its single-writer loop).
type Planner struct {
	ports  int
	dec    *bvn.Decomposer
	demand *matrix.Matrix // aggregate remaining demand
	plan   *bvn.Decomposition
	dirty  bool // demand changed since the last Plan, or none ran yet
}

// NewPlanner creates an empty planner for an m-port switch. It panics
// if ports is not positive.
func NewPlanner(ports int) *Planner {
	if ports <= 0 {
		panic(fmt.Sprintf("online: non-positive port count %d", ports))
	}
	return &Planner{
		ports:  ports,
		dec:    bvn.NewDecomposer(ports),
		demand: matrix.NewSquare(ports),
		dirty:  true,
	}
}

// SetObs installs the decomposition instrumentation (term-reuse hit
// rate, matcher solve counters) on the owned Decomposer.
func (p *Planner) SetObs(o bvn.Obs) { p.dec.SetObs(o) }

// Add accumulates a registered coflow's flows into the aggregate
// demand. Flows sharing a port pair accumulate; zero-size flows are
// ignored.
func (p *Planner) Add(flows []coflowmodel.Flow) error {
	for _, f := range flows {
		if f.Src < 0 || f.Src >= p.ports || f.Dst < 0 || f.Dst >= p.ports {
			return fmt.Errorf("online: flow (%d→%d) outside %d ports", f.Src, f.Dst, p.ports)
		}
		if f.Size < 0 {
			return fmt.Errorf("online: negative flow size %d on (%d→%d)", f.Size, f.Src, f.Dst)
		}
	}
	for _, f := range flows {
		if f.Size > 0 {
			p.demand.Add(f.Src, f.Dst, f.Size)
			p.dirty = true
		}
	}
	return nil
}

// Observe records one slot's served matching: one unit of demand
// drained per assignment. Assignments must reflect real service (the
// planner's demand on each served pair must be positive).
//
//coflow:allocfree
func (p *Planner) Observe(served []Assignment) error {
	for _, a := range served {
		if p.demand.At(a.Src, a.Dst) <= 0 {
			return fmt.Errorf("online: served unit on (%d→%d) with no planned demand", a.Src, a.Dst)
		}
		p.demand.Add(a.Src, a.Dst, -1)
		p.dirty = true
	}
	return nil
}

// Shed removes a cancelled coflow's remaining demand (as reported by
// State.Demand).
//
//coflow:allocfree
func (p *Planner) Shed(entries []matrix.SparseEntry) error {
	for _, e := range entries {
		if e.Val <= 0 {
			continue
		}
		if p.demand.At(e.Row, e.Col) < e.Val {
			return fmt.Errorf("online: shedding %d on (%d→%d) exceeds planned demand %d",
				e.Val, e.Row, e.Col, p.demand.At(e.Row, e.Col))
		}
		p.demand.Add(e.Row, e.Col, -e.Val)
		p.dirty = true
	}
	return nil
}

// Plan returns the BvN decomposition of the current aggregate demand:
// the cached one when nothing changed since the last Plan, otherwise
// Algorithm 1 run on the whole backlog. The result aliases the
// Decomposer's storage and is valid until the next Plan.
//
//coflow:allocfree
//coflow:pooled
func (p *Planner) Plan() (*bvn.Decomposition, error) {
	if !p.dirty {
		return p.plan, nil
	}
	dec, err := p.dec.Decompose(p.demand)
	if err != nil {
		return nil, err
	}
	p.plan, p.dirty = dec, false
	return dec, nil
}

// Load returns ρ of the most recent Plan (the optimal number of slots
// to clear that backlog), or 0 before the first Plan.
func (p *Planner) Load() int64 {
	if p.plan == nil {
		return 0
	}
	return p.plan.Load
}

// Terms returns the number of permutation terms in the most recent
// Plan, or 0 before the first Plan.
func (p *Planner) Terms() int {
	if p.plan == nil {
		return 0
	}
	return len(p.plan.Terms)
}
