package online

import (
	"fmt"
	"slices"

	"coflow/internal/coflowmodel"
	"coflow/internal/matrix"
)

// State is the live state of the per-slot greedy scheduler: the set of
// registered-but-unfinished coflows on an m×m switch. It is the
// incremental counterpart of Simulate — a resident scheduler (such as
// cmd/coflowd) adds and removes coflows while repeatedly calling Step,
// and the batch Simulate entry point drives the exact same core, so
// the two cannot drift apart.
//
// Per-coflow demand lives in a matrix.Sparse, so row/column sums and
// the SEBF bottleneck are maintained incrementally as units drain
// (O(changed entries) per slot, never an O(m²) or O(pairs·m) rescan),
// and every per-slot buffer (busy flags, active list, served and
// completed lists) is owned by the State and reused, so a steady-state
// Step performs zero heap allocations.
//
// A State is NOT safe for concurrent use; callers serialize access
// (coflowd does so with a single-writer event loop).
type State struct {
	ports int
	// live coflows; the slice is kept in the most recent priority
	// order (every policy's order is total — ties break on the unique
	// key — so list order never affects results, only how much work
	// the next sort has to do).
	list  []*cfState
	index map[int]*cfState
	// scratch reused across steps
	rowBusy, colBusy []bool
	active           []*cfState
	served           []Assignment
	completed        []int

	// failed marks ports taken offline by FailPort. A failed port is
	// excluded from every matching (its busy flags are pre-set before
	// the scan), so demand touching it is parked — it stays in the
	// coflow's remaining demand, is never served and never dropped, and
	// resumes draining after RecoverPort. While any port is down the
	// SEBF/WSPT priorities switch to the masked statistics so stranded
	// demand does not distort the order (a fully stranded coflow sorts
	// last).
	failed      []bool
	failedCount int

	// obs is the per-stage instrumentation (see obs.go). The zero
	// value is the disabled mode: every hook is a nil-safe no-op, so
	// an uninstrumented State keeps the zero-allocation, branch-only
	// Step contract.
	obs Obs
}

// Assignment is one unit of service in a slot: coflow Key sends one
// data unit from ingress Src to egress Dst.
type Assignment struct {
	Key int `json:"key"`
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// StepResult reports one slot of scheduling.
type StepResult struct {
	// Slot is the slot that was just served.
	Slot int64
	// Served lists the unit transfers of the slot (a matching: each
	// ingress and each egress appears at most once), grouped by
	// coflow: one coflow's assignments are contiguous, since the scan
	// serves coflow by coflow.
	// The slice aliases a State-owned buffer and is only valid until
	// the next Step; callers that retain it must copy.
	Served []Assignment
	// Completed lists the keys of coflows whose last unit transferred
	// in this slot. They are removed from the State. Like Served, the
	// slice is reused by the next Step.
	Completed []int
	// Active is the number of released, unfinished coflows that were
	// eligible in this slot (0 means the slot was idle).
	Active int
}

// NewState creates an empty scheduler state for an m-port switch.
// It panics if ports is not positive.
func NewState(ports int) *State {
	if ports <= 0 {
		panic(fmt.Sprintf("online: non-positive port count %d", ports))
	}
	return &State{
		ports:   ports,
		index:   make(map[int]*cfState),
		rowBusy: make([]bool, ports),
		colBusy: make([]bool, ports),
		failed:  make([]bool, ports),
	}
}

// Len returns the number of live (unfinished, not removed) coflows,
// released or not.
func (s *State) Len() int { return len(s.list) }

// Add registers a coflow under key with the given weight, release slot
// and flows. Flows sharing a port pair accumulate. It returns the
// coflow's total demand; a zero-demand coflow is NOT retained (it is
// complete the moment it is released, and the caller records that).
// Add fails on a duplicate live key, a non-positive weight, an
// out-of-range port, or a negative flow size.
func (s *State) Add(key int, weight float64, release int64, flows []coflowmodel.Flow) (int64, error) {
	if _, ok := s.index[key]; ok {
		return 0, fmt.Errorf("online: duplicate coflow key %d", key)
	}
	if weight <= 0 {
		return 0, fmt.Errorf("online: coflow %d has non-positive weight %g", key, weight)
	}
	if release < 0 {
		return 0, fmt.Errorf("online: coflow %d has negative release %d", key, release)
	}
	entries := make([]matrix.SparseEntry, 0, len(flows))
	for _, f := range flows {
		if f.Src < 0 || f.Src >= s.ports || f.Dst < 0 || f.Dst >= s.ports {
			return 0, fmt.Errorf("online: coflow %d flow (%d→%d) outside %d ports", key, f.Src, f.Dst, s.ports)
		}
		if f.Size < 0 {
			return 0, fmt.Errorf("online: coflow %d has negative flow size %d", key, f.Size)
		}
		if f.Size > 0 {
			entries = append(entries, matrix.SparseEntry{Row: f.Src, Col: f.Dst, Val: f.Size})
		}
	}
	if len(entries) == 0 {
		return 0, nil
	}
	demand, err := matrix.NewSparse(entries)
	if err != nil {
		return 0, err
	}
	st := &cfState{key: key, release: release, weight: weight, demand: demand}
	s.list = append(s.list, st)
	s.index[key] = st
	return demand.Total(), nil
}

// Remove cancels the live coflow under key, reporting whether it was
// present. Its unserved demand is discarded.
func (s *State) Remove(key int) bool {
	st, ok := s.index[key]
	if !ok {
		return false
	}
	s.drop(st)
	return true
}

// Remaining returns the total unserved demand of the live coflow under
// key, or (0, false) if it is not live.
func (s *State) Remaining(key int) (int64, bool) {
	st, ok := s.index[key]
	if !ok {
		return 0, false
	}
	return st.demand.Total(), true
}

// Keys appends the keys of every live coflow (released or not) to dst
// in ascending order and returns it. For validation and diagnostics
// (internal/check diffs live state against a reference); pass a
// reused buffer to avoid allocation.
func (s *State) Keys(dst []int) []int {
	for _, st := range s.list {
		dst = append(dst, st.key)
	}
	slices.Sort(dst)
	return dst
}

// Demand returns the positive remaining demand entries of the live
// coflow under key in (row, col) order, or nil if it is not live. The
// entries are copies; for validation and diagnostics, not the hot
// path.
func (s *State) Demand(key int) []matrix.SparseEntry {
	st, ok := s.index[key]
	if !ok {
		return nil
	}
	d := st.demand
	out := make([]matrix.SparseEntry, 0, d.Len())
	for e, n := 0, d.Len(); e < n; e++ {
		src, dst, val := d.Entry(e)
		if val > 0 {
			out = append(out, matrix.SparseEntry{Row: src, Col: dst, Val: val})
		}
	}
	return out
}

// FailPort takes port p offline: both its ingress and egress side
// leave the matching until RecoverPort. Demand already routed through
// p is parked, not dropped — it stays in its coflow's remaining demand
// and the coflow cannot complete until the port recovers (demand
// conservation holds across the failure). Idempotent; fails only on an
// out-of-range port.
func (s *State) FailPort(p int) error {
	if p < 0 || p >= s.ports {
		return fmt.Errorf("online: port %d outside %d ports", p, s.ports)
	}
	if !s.failed[p] {
		s.failed[p] = true
		s.failedCount++
	}
	return nil
}

// RecoverPort brings port p back online; parked demand resumes
// draining on the next slot. Idempotent; fails only on an out-of-range
// port.
func (s *State) RecoverPort(p int) error {
	if p < 0 || p >= s.ports {
		return fmt.Errorf("online: port %d outside %d ports", p, s.ports)
	}
	if s.failed[p] {
		s.failed[p] = false
		s.failedCount--
	}
	return nil
}

// FailedPortCount returns the number of ports currently offline.
func (s *State) FailedPortCount() int { return s.failedCount }

// FailedPorts appends the offline ports to dst in ascending order and
// returns it; pass a reused buffer to avoid allocation.
func (s *State) FailedPorts(dst []int) []int {
	for p, down := range s.failed {
		if down {
			dst = append(dst, p)
		}
	}
	return dst
}

// NextRelease returns the earliest release strictly after t among live
// coflows, or -1 if there is none. Batch drivers use it to skip idle
// slots; a wall-clock daemon never needs it.
func (s *State) NextRelease(t int64) int64 {
	next := int64(-1)
	for _, st := range s.list {
		if st.release > t && (next < 0 || st.release < next) {
			next = st.release
		}
	}
	return next
}

// Step serves one slot under the given policy: it builds a greedy
// maximal matching over the remaining demand of the coflows released
// before slot (release ≤ slot−1), visiting them in the policy's
// priority order, transfers one unit on every matched pair, and
// removes the coflows that finish.
//
// Approximation caveat: Step commits to a greedy MAXIMAL matching with
// O(1) lookahead, not a maximum one, so in the worst case a demand
// matrix D needs up to 2ρ(D)−1 slots to clear versus the ρ(D) of a
// Birkhoff–von Neumann decomposition — the classical factor-2 slot
// overhead. That is the price of an incremental API whose per-slot
// work is near-linear in the live demand; the paper's offline
// constant-factor guarantees do not transfer to this scheduler.
//
//coflow:allocfree
//coflow:pooled
func (s *State) Step(slot int64, policy Policy) StepResult {
	stepSpan := s.obs.StepSeconds.Start()
	s.obs.Steps.Inc()
	// The whole live list is kept in policy order (a sorted-check
	// short-circuits steady-state slots where no priority moved); the
	// active set then inherits that order when it is filtered out.
	sortSpan := s.obs.SortSeconds.Start()
	s.prioritizeList(policy)
	sortSpan.End()
	res := s.step(slot)
	stepSpan.End()
	return res
}

// step is the slot core: the active set is filtered out of the sorted
// live list, then the greedy matching is built in that order. Every
// append lands in receiver-owned scratch that reaches steady-state
// capacity after the first few slots.
//
//coflow:allocfree
//coflow:pooled
func (s *State) step(slot int64) StepResult {
	res := StepResult{Slot: slot}
	s.active = s.active[:0]
	for _, st := range s.list {
		if st.release < slot && st.demand.Total() > 0 {
			s.active = append(s.active, st)
		}
	}
	res.Active = len(s.active)
	if res.Active == 0 {
		s.obs.IdleSteps.Inc()
		return res
	}

	matchSpan := s.obs.MatchSeconds.Start()
	for i := range s.rowBusy {
		s.rowBusy[i] = false
	}
	for i := range s.colBusy {
		s.colBusy[i] = false
	}
	// A failed port is modeled as permanently busy on both sides: the
	// greedy scan below then parks any demand touching it for free,
	// with no extra branch on the per-entry fast path.
	if s.failedCount > 0 {
		for p, down := range s.failed {
			if down {
				s.rowBusy[p] = true
				s.colBusy[p] = true
			}
		}
	}
	s.served = s.served[:0]
	s.completed = s.completed[:0]
	// A slot serves at most m units (each unit occupies one ingress
	// and one egress), so once m are matched the scan over
	// lower-priority coflows stops: with many more coflows than ports
	// this saturation exit, not the active count, bounds the per-slot
	// work.
	for _, st := range s.active {
		d := st.demand
		for e, n := 0, d.Len(); e < n; e++ {
			src, dst, rem := d.Entry(e)
			if rem == 0 || s.rowBusy[src] || s.colBusy[dst] {
				continue
			}
			s.rowBusy[src] = true
			s.colBusy[dst] = true
			d.Dec(e, 1)
			s.served = append(s.served, Assignment{Key: st.key, Src: src, Dst: dst})
		}
		if d.Total() == 0 {
			s.completed = append(s.completed, st.key)
			s.drop(st)
		}
		if len(s.served) == s.ports-s.failedCount {
			s.obs.SaturationExits.Inc()
			break
		}
	}
	matchSpan.End()
	s.obs.UnitsServed.Add(int64(len(s.served)))
	s.obs.CoflowsCompleted.Add(int64(len(s.completed)))
	res.Served = s.served
	res.Completed = s.completed
	return res
}

// drop removes st from the live list and index.
//
//coflow:allocfree
func (s *State) drop(st *cfState) {
	delete(s.index, st.key)
	for i, cur := range s.list {
		if cur == st {
			s.list = append(s.list[:i], s.list[i+1:]...)
			return
		}
	}
}
