// Package online implements slot-by-slot online coflow scheduling:
// the paper's concluding discussion asks for algorithms that work "in
// real time in a real system" without solving an LP over the whole
// future. The scheduler here makes no use of release dates beyond
// observing arrivals: in every slot it greedily builds a matching over
// the remaining demand of the currently released coflows, visiting
// coflows in a priority order that is recomputed from the live state.
//
// Three priorities are provided: FIFO (arrival order), weighted SEBF
// (remaining bottleneck over weight, the online analogue of H_ρ), and
// WSPT (total remaining work over weight). Greedy maximal matchings
// give the classical factor-2 slot overhead versus a Birkhoff–von
// Neumann schedule in the worst case, in exchange for O(1) lookahead.
package online

import (
	"fmt"
	"math"
	"slices"

	"coflow/internal/coflowmodel"
	"coflow/internal/matrix"
)

// Policy selects the per-slot coflow priority.
type Policy int

const (
	// FIFO serves coflows in arrival (release, then ID) order.
	FIFO Policy = iota
	// SEBF serves the smallest remaining-bottleneck-per-weight first.
	SEBF
	// WSPT serves the smallest remaining-work-per-weight first.
	WSPT
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "FIFO"
	case SEBF:
		return "SEBF"
	case WSPT:
		return "WSPT"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Result reports an online run.
type Result struct {
	// Completion[k] is the completion slot of ins.Coflows[k] (its
	// release if it has no demand).
	Completion []int64
	// TotalWeighted is Σ w_k·Completion[k].
	TotalWeighted float64
	// Makespan is the largest completion time.
	Makespan int64
	// Slots is the number of slots simulated.
	Slots int64
}

// cfState is one live coflow: its sparse remaining demand (which
// maintains row/col sums, the total, and the SEBF bottleneck ρ
// incrementally as units drain) plus the priority key of the current
// slot's sort.
type cfState struct {
	key     int // caller's identifier (batch runs use the instance index)
	release int64
	weight  float64
	demand  *matrix.Sparse
	prio    float64 // per-slot sort key (SEBF/WSPT), set by prioritizeList
}

// Simulate runs the online greedy scheduler under the given policy.
// It is the batch driver over the incremental State/Step core (the
// same code path a resident scheduler uses): load every coflow, then
// step slot by slot, skipping idle gaps between arrivals.
func Simulate(ins *coflowmodel.Instance, policy Policy) (*Result, error) {
	if err := ins.Validate(); err != nil {
		return nil, err
	}
	n := len(ins.Coflows)
	state := NewState(ins.Ports)
	state.SetObs(pkgObs)
	res := &Result{Completion: make([]int64, n)}
	for k := range ins.Coflows {
		c := &ins.Coflows[k]
		remaining, err := state.Add(k, c.Weight, c.Release, c.Flows)
		if err != nil {
			return nil, err
		}
		if remaining == 0 {
			res.Completion[k] = c.Release
		}
	}

	var t int64
	horizon := ins.Horizon() + 1
	for state.Len() > 0 {
		if t > horizon {
			return nil, fmt.Errorf("online: exceeded horizon %d with work remaining (scheduler stalled)", horizon)
		}
		step := state.Step(t+1, policy)
		if step.Active == 0 {
			t = state.NextRelease(t) // idle until the next arrival
			continue
		}
		for _, k := range step.Completed {
			res.Completion[k] = step.Slot
		}
		t = step.Slot
	}
	res.Slots = t
	for k := range ins.Coflows {
		res.TotalWeighted += ins.Coflows[k].Weight * float64(res.Completion[k])
		if res.Completion[k] > res.Makespan {
			res.Makespan = res.Completion[k]
		}
	}
	return res, nil
}

// fifoCmp orders by (release, key): arrival order with a deterministic
// tie-break.
//
//coflow:allocfree
func fifoCmp(a, b *cfState) int {
	if a.release != b.release {
		if a.release < b.release {
			return -1
		}
		return 1
	}
	return a.key - b.key
}

// prioCmp orders by the precomputed priority key, breaking ties on the
// unique coflow key so every policy order is a strict total order.
//
//coflow:allocfree
func prioCmp(a, b *cfState) int {
	if a.prio != b.prio {
		if a.prio < b.prio {
			return -1
		}
		return 1
	}
	return a.key - b.key
}

// prioritizeList sorts the live list into the policy's priority order.
// Priorities are precomputed into cfState.prio (one O(1) read per
// coflow — the sparse demand maintains its bottleneck and total
// incrementally), then an O(n) sorted-check skips the sort entirely on
// the common steady-state slot where no coflow overtook another. FIFO
// keys are static and take the same check under fifoCmp.
//
//coflow:allocfree
func (s *State) prioritizeList(policy Policy) {
	list := s.list
	switch policy {
	case FIFO:
		if !slices.IsSortedFunc(list, fifoCmp) {
			slices.SortStableFunc(list, fifoCmp)
			return
		}
		s.obs.SortSkips.Inc()
		return
	case SEBF:
		if s.failedCount > 0 {
			// Under port failures the bottleneck is computed over the
			// serviceable submatrix only, so parked demand does not
			// distort the order; a fully stranded coflow (masked load
			// 0 but demand remaining) sorts last.
			for _, st := range list {
				if ml := st.demand.LoadMasked(s.failed); ml > 0 {
					st.prio = float64(ml) / st.weight
				} else {
					st.prio = math.Inf(1)
				}
			}
			break
		}
		for _, st := range list {
			st.prio = float64(st.demand.Load()) / st.weight
		}
	case WSPT:
		if s.failedCount > 0 {
			for _, st := range list {
				if mt := st.demand.TotalMasked(s.failed); mt > 0 {
					st.prio = float64(mt) / st.weight
				} else {
					st.prio = math.Inf(1)
				}
			}
			break
		}
		for _, st := range list {
			st.prio = float64(st.demand.Total()) / st.weight
		}
	}
	if !slices.IsSortedFunc(list, prioCmp) {
		slices.SortStableFunc(list, prioCmp)
		return
	}
	s.obs.SortSkips.Inc()
}
