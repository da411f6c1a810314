package check

import (
	"fmt"

	"coflow/internal/coflowmodel"
	"coflow/internal/online"
)

// Monitor is the runtime self-check a resident scheduler runs inside
// its tick loop (coflowd -selfcheck): an independent, O(served)-per-
// slot shadow of the demand bookkeeping that validates every emitted
// StepResult against the formulation's invariants — each slot a
// partial permutation, no pre-release service, no phantom or double-
// counted units, completions exactly when demand drains.
//
// Unlike Shadow it does not re-run the scheduling decision (that is a
// test-time oracle); it verifies that whatever the scheduler decided
// is FEASIBLE and CONSERVES demand, which is what Theorem 1's
// feasibility argument needs from every emitted slot. Memory is
// O(live demand); completed coflows are forgotten.
//
// Monitor is not safe for concurrent use; the daemon's single-writer
// loop owns it.
type Monitor struct {
	ports    int
	coflows  map[int]*monCoflow
	lastSlot int64
	// per-slot occupancy, stamped with the slot number so no clearing
	// pass is needed.
	rowSlot, colSlot []int64
	// touched keys scratch for the drain check.
	touched []int
	// down marks ports the caller declared failed (FailPort): any
	// service touching one is a violation, because a failed port's
	// demand must park, not drain.
	down []bool
}

// monCoflow is the monitor's independent bookkeeping for one coflow.
type monCoflow struct {
	release int64
	pairs   map[int]int64 // src*ports+dst -> remaining units
	total   int64
}

// NewMonitor creates a monitor for an m-port switch.
func NewMonitor(ports int) *Monitor {
	if ports <= 0 {
		panic(fmt.Sprintf("check: non-positive port count %d", ports))
	}
	return &Monitor{
		ports:   ports,
		coflows: map[int]*monCoflow{},
		rowSlot: make([]int64, ports),
		colSlot: make([]int64, ports),
		down:    make([]bool, ports),
	}
}

// FailPort mirrors a State.FailPort: from now until RecoverPort, any
// service touching port p is reported as a violation. Out-of-range
// ports are ignored (the scheduler already rejected them).
func (mo *Monitor) FailPort(p int) {
	if p >= 0 && p < mo.ports {
		mo.down[p] = true
	}
}

// RecoverPort mirrors a State.RecoverPort.
func (mo *Monitor) RecoverPort(p int) {
	if p >= 0 && p < mo.ports {
		mo.down[p] = false
	}
}

// Add mirrors a successful State.Add: it registers the coflow's
// demand for conservation tracking. Zero-demand coflows are ignored
// (the scheduler does not retain them either). Out-of-range flows are
// ignored — the scheduler already rejected them if present.
func (mo *Monitor) Add(key int, release int64, flows []coflowmodel.Flow) {
	mc := &monCoflow{release: release, pairs: map[int]int64{}}
	for _, f := range flows {
		if f.Size <= 0 || f.Src < 0 || f.Src >= mo.ports || f.Dst < 0 || f.Dst >= mo.ports {
			continue
		}
		mc.pairs[f.Src*mo.ports+f.Dst] += f.Size
		mc.total += f.Size
	}
	if mc.total > 0 {
		mo.coflows[key] = mc
	}
}

// Remove mirrors a State.Remove (cancellation): the coflow's
// remaining demand is forgotten.
func (mo *Monitor) Remove(key int) {
	delete(mo.coflows, key)
}

// Observe applies one slot's StepResult to the monitor's bookkeeping
// and, when validate is set, returns every invariant the slot
// violated (nil means the slot is clean). The bookkeeping is applied
// even when validate is false — that is what makes sampled validation
// sound: skipped slots still advance the monitor's view of demand, so
// a later validated slot checks against correct remainders.
func (mo *Monitor) Observe(res online.StepResult, validate bool) []Violation {
	var c *collector
	if validate {
		c = &collector{}
	}
	report := func(v Violation) {
		if c != nil {
			c.add(v)
		}
	}

	if res.Slot <= mo.lastSlot {
		report(Violation{Kind: KindBadService, Slot: res.Slot, Coflow: -1, Port: -1,
			Msg: fmt.Sprintf("slot %d does not advance past %d", res.Slot, mo.lastSlot)})
	}
	mo.lastSlot = res.Slot

	mo.touched = mo.touched[:0]
	for _, a := range res.Served {
		if a.Src < 0 || a.Src >= mo.ports || a.Dst < 0 || a.Dst >= mo.ports {
			report(Violation{Kind: KindBadService, Slot: res.Slot, Coflow: a.Key, Port: a.Src,
				Msg: fmt.Sprintf("assignment (%d→%d) outside %d ports", a.Src, a.Dst, mo.ports)})
			continue
		}
		if mo.down[a.Src] || mo.down[a.Dst] {
			p := a.Src
			if !mo.down[p] {
				p = a.Dst
			}
			report(Violation{Kind: KindBadService, Slot: res.Slot, Coflow: a.Key, Port: p,
				Msg: fmt.Sprintf("assignment (%d→%d) uses failed port %d in slot %d", a.Src, a.Dst, p, res.Slot)})
		}
		if mo.rowSlot[a.Src] == res.Slot {
			report(Violation{Kind: KindDoubleBooked, Slot: res.Slot, Coflow: a.Key, Port: a.Src,
				Msg: fmt.Sprintf("ingress %d serves two units in slot %d", a.Src, res.Slot)})
		}
		if mo.colSlot[a.Dst] == res.Slot {
			report(Violation{Kind: KindDoubleBooked, Slot: res.Slot, Coflow: a.Key, Port: a.Dst,
				Msg: fmt.Sprintf("egress %d serves two units in slot %d", a.Dst, res.Slot)})
		}
		mo.rowSlot[a.Src] = res.Slot
		mo.colSlot[a.Dst] = res.Slot

		mc, ok := mo.coflows[a.Key]
		if !ok {
			report(Violation{Kind: KindBadService, Slot: res.Slot, Coflow: a.Key, Port: -1,
				Msg: fmt.Sprintf("served unknown coflow %d", a.Key)})
			continue
		}
		if mc.release >= res.Slot {
			report(Violation{Kind: KindPreRelease, Slot: res.Slot, Coflow: a.Key, Port: -1,
				Msg: fmt.Sprintf("coflow %d served in slot %d, release %d", a.Key, res.Slot, mc.release)})
		}
		pair := a.Src*mo.ports + a.Dst
		if mc.pairs[pair] <= 0 {
			report(Violation{Kind: KindOverServed, Slot: res.Slot, Coflow: a.Key, Port: -1,
				Msg: fmt.Sprintf("coflow %d over-served on (%d→%d) in slot %d", a.Key, a.Src, a.Dst, res.Slot)})
			continue // don't drive the count negative
		}
		mc.pairs[pair]--
		mc.total--
		mo.touched = append(mo.touched, a.Key)
	}

	// Completion consistency, both directions: every reported
	// completion must have exactly drained, and every drained coflow
	// must be reported.
	completed := make(map[int]bool, len(res.Completed))
	for _, key := range res.Completed {
		completed[key] = true
		mc, ok := mo.coflows[key]
		if !ok {
			report(Violation{Kind: KindBadCompletion, Slot: res.Slot, Coflow: key, Port: -1,
				Msg: fmt.Sprintf("unknown coflow %d reported completed", key)})
			continue
		}
		if mc.total != 0 {
			report(Violation{Kind: KindBadCompletion, Slot: res.Slot, Coflow: key, Port: -1,
				Msg: fmt.Sprintf("coflow %d reported completed with %d units remaining", key, mc.total)})
		}
		delete(mo.coflows, key)
	}
	for _, key := range mo.touched {
		if mc, ok := mo.coflows[key]; ok && mc.total == 0 && !completed[key] {
			report(Violation{Kind: KindUnderServed, Slot: res.Slot, Coflow: key, Port: -1,
				Msg: fmt.Sprintf("coflow %d drained in slot %d but was not reported completed", key, res.Slot)})
			delete(mo.coflows, key) // resync: the scheduler no longer serves it
		}
	}

	if c == nil {
		return nil
	}
	return c.vs
}
