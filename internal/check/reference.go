package check

import (
	"fmt"
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
//     matrix (no saturation exit, no replay of the previous slot).
//
// Every shortcut the fast path takes must be behaviour-preserving, so
// Reference.Step and online.State.Step must agree exactly — same
// served sequence, same completions, same remaining demand. Reference
// is O(active·m²) per slot and allocates freely; it exists for
// correctness, not speed.
type Reference struct {
	ports   int
	coflows []*refCoflow
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

// load rescans all row and column sums.
func (c *refCoflow) load(m int) int64 {
	var best int64
	for i := 0; i < m; i++ {
		var row int64
		for j := 0; j < m; j++ {
			row += c.demand[i*m+j]
		}
		if row > best {
			best = row
		}
	}
	for j := 0; j < m; j++ {
		var col int64
		for i := 0; i < m; i++ {
			col += c.demand[i*m+j]
		}
		if col > best {
			best = col
		}
	}
	return best
}

// NewReference creates an empty reference scheduler for an m-port
// switch.
func NewReference(ports int) *Reference {
	if ports <= 0 {
		panic(fmt.Sprintf("check: non-positive port count %d", ports))
	}
	return &Reference{ports: ports}
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

// Step serves one slot exactly as the specification of
// online.State.Step demands: the coflows released before slot and
// still holding demand are visited in the policy's priority order
// (ties on the unique key), and a greedy maximal matching transfers
// one unit on every matched (src, dst) pair, scanning each coflow's
// demand in (row, col) order. Coflows that drain complete and are
// removed. The returned slices are freshly allocated.
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
	case online.SEBF:
		for _, c := range active {
			c.prio = float64(c.load(r.ports)) / c.weight
		}
		sortByPrio(active)
	case online.WSPT:
		for _, c := range active {
			c.prio = float64(c.total()) / c.weight
		}
		sortByPrio(active)
	}

	// Greedy matching: full scan of every active coflow's dense
	// matrix, no early exit.
	m := r.ports
	rowBusy := make([]bool, m)
	colBusy := make([]bool, m)
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
