package check

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"coflow/internal/coflowmodel"
	"coflow/internal/matrix"
	"coflow/internal/online"
)

// Reference is a deliberately naive implementation of the online
// greedy scheduler's SPECIFICATION, kept as the ground truth the
// optimized online.State is diffed against (see Shadow):
//
//   - demand is a dense m×m matrix per coflow; row sums, totals and
//     the SEBF bottleneck ρ are recomputed by full rescans every slot
//     (no incremental sums, no dirty flags);
//   - the priority order is rebuilt from scratch every slot with a
//     fresh sort (no warm-sorted list, no sorted-check short-circuit);
//   - the greedy matching always rescans every active coflow's full
//     matrix (no saturation exit).
//
// Port failures follow the written rules, not the fast path's code: a
// failed port starts every slot busy on both sides, so demand touching
// it is parked; a coflow whose demand is all parked still counts as
// active; FIFO ignores failures; the SEBF and WSPT keys are ρ and the
// total over the cells whose two ports are both up, and a key of 0
// (nothing serviceable) sorts last. With no port down the masked key
// is the plain one.
//
// Every shortcut the fast path takes must be behaviour-preserving, so
// Reference.Step and online.State.Step must agree exactly — same
// served sequence, same completions, same remaining demand. Reference
// is O(active·m²) per slot and allocates freely; it exists for
// correctness, not speed.
type Reference struct {
	ports   int
	coflows []*refCoflow
	failed  []bool
}

// refCoflow is one live coflow in the reference scheduler.
type refCoflow struct {
	key     int
	weight  float64
	release int64
	demand  []int64 // dense, row-major m×m
	prio    float64 // recomputed from scratch each slot
}

// total rescans the full matrix (deliberately, see type comment).
func (c *refCoflow) total() int64 {
	var t int64
	for _, v := range c.demand {
		t += v
	}
	return t
}

// upLoadTotal rescans the cells whose ingress and egress are both up
// and returns their bottleneck ρ (largest row or column sum) and their
// total.
func (r *Reference) upLoadTotal(c *refCoflow) (load, total int64) {
	m := r.ports
	rows := make([]int64, m)
	cols := make([]int64, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if r.failed[i] || r.failed[j] {
				continue
			}
			v := c.demand[i*m+j]
			rows[i] += v
			cols[j] += v
			total += v
		}
	}
	for p := 0; p < m; p++ {
		load = max(load, rows[p], cols[p])
	}
	return load, total
}

// NewReference creates an empty reference scheduler for an m-port
// switch.
func NewReference(ports int) *Reference {
	if ports <= 0 {
		panic(fmt.Sprintf("check: non-positive port count %d", ports))
	}
	return &Reference{ports: ports, failed: make([]bool, ports)}
}

// Add mirrors online.State.Add: it registers a coflow, accumulating
// flows that share a port pair, and does not retain zero-demand
// coflows. The validation rules (and their order) match the fast path
// so both implementations accept and reject identical inputs.
func (r *Reference) Add(key int, weight float64, release int64, flows []coflowmodel.Flow) (int64, error) {
	for _, c := range r.coflows {
		if c.key == key {
			return 0, fmt.Errorf("check: duplicate coflow key %d", key)
		}
	}
	if weight <= 0 {
		return 0, fmt.Errorf("check: coflow %d has non-positive weight %g", key, weight)
	}
	if release < 0 {
		return 0, fmt.Errorf("check: coflow %d has negative release %d", key, release)
	}
	m := r.ports
	demand := make([]int64, m*m)
	var total int64
	for _, f := range flows {
		if f.Src < 0 || f.Src >= m || f.Dst < 0 || f.Dst >= m {
			return 0, fmt.Errorf("check: coflow %d flow (%d→%d) outside %d ports", key, f.Src, f.Dst, m)
		}
		if f.Size < 0 {
			return 0, fmt.Errorf("check: coflow %d has negative flow size %d", key, f.Size)
		}
		demand[f.Src*m+f.Dst] += f.Size
		total += f.Size
	}
	if total == 0 {
		return 0, nil
	}
	r.coflows = append(r.coflows, &refCoflow{key: key, weight: weight, release: release, demand: demand})
	return total, nil
}

// Remove mirrors online.State.Remove.
func (r *Reference) Remove(key int) bool {
	for i, c := range r.coflows {
		if c.key == key {
			r.coflows = append(r.coflows[:i], r.coflows[i+1:]...)
			return true
		}
	}
	return false
}

// Remaining mirrors online.State.Remaining (by full rescan).
func (r *Reference) Remaining(key int) (int64, bool) {
	for _, c := range r.coflows {
		if c.key == key {
			return c.total(), true
		}
	}
	return 0, false
}

// Keys returns the live coflow keys in ascending order.
func (r *Reference) Keys() []int {
	out := make([]int, 0, len(r.coflows))
	for _, c := range r.coflows {
		out = append(out, c.key)
	}
	sort.Ints(out)
	return out
}

// Demand returns the positive remaining entries of the live coflow
// under key in (row, col) order, or nil if it is not live.
func (r *Reference) Demand(key int) []matrix.SparseEntry {
	for _, c := range r.coflows {
		if c.key == key {
			m := r.ports
			var out []matrix.SparseEntry
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					if v := c.demand[i*m+j]; v > 0 {
						out = append(out, matrix.SparseEntry{Row: i, Col: j, Val: v})
					}
				}
			}
			return out
		}
	}
	return nil
}

// FailPort mirrors online.State.FailPort: port p leaves the matching
// on both sides until RecoverPort. Idempotent; fails only on an
// out-of-range port.
func (r *Reference) FailPort(p int) error {
	if p < 0 || p >= r.ports {
		return fmt.Errorf("check: port %d outside %d ports", p, r.ports)
	}
	r.failed[p] = true
	return nil
}

// RecoverPort mirrors online.State.RecoverPort.
func (r *Reference) RecoverPort(p int) error {
	if p < 0 || p >= r.ports {
		return fmt.Errorf("check: port %d outside %d ports", p, r.ports)
	}
	r.failed[p] = false
	return nil
}

// Step serves one slot exactly as the specification of
// online.State.Step demands: the coflows released before slot and
// still holding demand are visited in the policy's priority order
// (ties on the unique key), and a greedy maximal matching over the
// ports that are up transfers one unit on every matched (src, dst)
// pair, scanning each coflow's demand in (row, col) order. Coflows
// that drain complete and are removed. The returned slices are
// freshly allocated.
func (r *Reference) Step(slot int64, policy online.Policy) online.StepResult {
	res := online.StepResult{Slot: slot}

	// Cold active scan: recompute every total, no cached sums.
	var active []*refCoflow
	for _, c := range r.coflows {
		if c.release < slot && c.total() > 0 {
			active = append(active, c)
		}
	}
	res.Active = len(active)
	if res.Active == 0 {
		return res
	}

	// Cold priorities and a fresh sort every slot.
	switch policy {
	case online.FIFO:
		sort.SliceStable(active, func(a, b int) bool {
			if active[a].release != active[b].release {
				return active[a].release < active[b].release
			}
			return active[a].key < active[b].key
		})
	case online.SEBF, online.WSPT:
		for _, c := range active {
			load, total := r.upLoadTotal(c)
			key := total
			if policy == online.SEBF {
				key = load
			}
			c.prio = math.Inf(1) // all demand parked on failed ports
			if key > 0 {
				c.prio = float64(key) / c.weight
			}
		}
		sortByPrio(active)
	}

	// Greedy matching: failed ports start the slot busy, then a full
	// scan of every active coflow's dense matrix, no early exit.
	m := r.ports
	rowBusy := slices.Clone(r.failed)
	colBusy := slices.Clone(r.failed)
	var served []online.Assignment
	var completed []int
	for _, c := range active {
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				if c.demand[i*m+j] == 0 || rowBusy[i] || colBusy[j] {
					continue
				}
				rowBusy[i] = true
				colBusy[j] = true
				c.demand[i*m+j]--
				served = append(served, online.Assignment{Key: c.key, Src: i, Dst: j})
			}
		}
		if c.total() == 0 {
			completed = append(completed, c.key)
			r.Remove(c.key)
		}
	}
	res.Served = served
	res.Completed = completed
	return res
}

// sortByPrio sorts by (prio, key), the same strict total order the
// fast path uses.
func sortByPrio(list []*refCoflow) {
	sort.SliceStable(list, func(a, b int) bool {
		if list[a].prio != list[b].prio {
			return list[a].prio < list[b].prio
		}
		return list[a].key < list[b].key
	})
}
