// Package check verifies coflow schedules and scheduler state against
// the paper's formulation (O) and the invariants the rest of the
// system relies on. The optimizations of the sparse slot pipeline —
// incremental sums, warm-sorted priority lists, the saturation exit —
// are exactly the kind of stateful shortcut where silent
// corruption produces plausible-looking but wrong schedules, so the
// package provides machinery to *detect* a violated invariant instead
// of discovering it through a bad completion-time number:
//
//   - Schedule is a post-hoc validator: given an instance and a
//     recorded schedule it verifies that every slot is a partial
//     permutation (constraints (2)–(3)), that no coflow is served
//     before its release date (constraint (4)), that per-(src,dst)
//     service exactly conserves demand (constraint (1)), that claimed
//     completion times equal last-service slots, and that reported
//     objective values match recomputation. It returns structured
//     Violations rather than a boolean, so tests and operators see
//     every broken invariant at once.
//   - Reference is a deliberately slow, dense re-implementation of the
//     online scheduler's specification: cold priorities, full rescans,
//     fresh sorts, no saturation exit. Shadow runs it in lockstep
//     with the optimized online.State and reports any divergence as a
//     Divergence with a minimized reproducer — a differential oracle
//     over the fast path.
//   - Monitor is a cheap runtime validator a resident scheduler
//     (coflowd -selfcheck) runs inside its tick loop: O(served) per
//     slot, bounded memory, violation counters for /v1/metrics.
package check

import (
	"fmt"
	"math"

	"coflow/internal/coflowmodel"
	"coflow/internal/online"
	"coflow/internal/switchsim"
)

// Kind classifies a violated invariant.
type Kind int

const (
	// KindBadInstance: the instance itself fails validation.
	KindBadInstance Kind = iota
	// KindPortMismatch: the schedule was recorded for a different
	// switch size than the instance's.
	KindPortMismatch
	// KindBadService: a service names an unknown coflow, an
	// out-of-range port, or a non-positive slot.
	KindBadService
	// KindDoubleBooked: an ingress or egress port serves two units in
	// one slot (the slot is not a partial permutation; constraints
	// (2)–(3)).
	KindDoubleBooked
	// KindPreRelease: a coflow is served in a slot not after its
	// release date (constraint (4)).
	KindPreRelease
	// KindOverServed: a (coflow, src, dst) pair is served more units
	// than it demanded (service invents data).
	KindOverServed
	// KindUnderServed: demand is left unserved at schedule end
	// (constraint (1)).
	KindUnderServed
	// KindBadCompletion: a claimed completion time disagrees with the
	// coflow's last service slot (or, for empty coflows, its release).
	KindBadCompletion
	// KindBadObjective: a reported aggregate (total weighted completion
	// time, makespan) disagrees with recomputation from completions.
	KindBadObjective
	// KindTruncated: the violation list hit its cap; further
	// violations were dropped.
	KindTruncated
)

func (k Kind) String() string {
	switch k {
	case KindBadInstance:
		return "bad-instance"
	case KindPortMismatch:
		return "port-mismatch"
	case KindBadService:
		return "bad-service"
	case KindDoubleBooked:
		return "double-booked"
	case KindPreRelease:
		return "pre-release"
	case KindOverServed:
		return "over-served"
	case KindUnderServed:
		return "under-served"
	case KindBadCompletion:
		return "bad-completion"
	case KindBadObjective:
		return "bad-objective"
	case KindTruncated:
		return "truncated"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Violation is one broken invariant, located as precisely as the kind
// allows. Fields that do not apply hold -1.
type Violation struct {
	Kind Kind
	// Slot is the slot in which the violation occurred (-1 when the
	// violation is not slot-specific).
	Slot int64
	// Coflow is the instance index (or live key, for Monitor) of the
	// offending coflow, -1 when not coflow-specific.
	Coflow int
	// Port is the double-booked or out-of-range port, -1 otherwise.
	Port int
	// Msg is a human-readable description with the concrete numbers.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Kind, v.Msg)
}

// MaxViolations caps the number of violations a single validation
// reports; a schedule that is wrong everywhere would otherwise drown
// the signal. The cap is recorded with a final KindTruncated entry.
const MaxViolations = 256

// collector accumulates violations up to the cap.
type collector struct {
	vs   []Violation
	full bool
}

func (c *collector) add(v Violation) {
	if c.full {
		return
	}
	if len(c.vs) >= MaxViolations {
		c.vs = append(c.vs, Violation{
			Kind: KindTruncated, Slot: -1, Coflow: -1, Port: -1,
			Msg: fmt.Sprintf("more than %d violations; remainder dropped", MaxViolations),
		})
		c.full = true
		return
	}
	c.vs = append(c.vs, v)
}

// Service records a single data unit's transfer: one unit of coflow
// Coflow (an instance index) moved from ingress Src to egress Dst
// during slot Slot. Slots are 1-based, matching the executors.
type Service struct {
	Slot   int64 `json:"slot"`
	Src    int   `json:"src"`
	Dst    int   `json:"dst"`
	Coflow int   `json:"coflow"`
}

// Recorded is a complete executed schedule in checkable form: the
// unit-level services plus the claims the scheduler made about it.
type Recorded struct {
	// Ports is the switch size the schedule was produced for.
	Ports int `json:"ports"`
	// Services lists every unit transfer, in any order.
	Services []Service `json:"services"`
	// Completion[k] is the claimed completion slot of coflow k.
	Completion []int64 `json:"completion"`
	// TotalWeighted is the claimed Σ w_k·C_k.
	TotalWeighted float64 `json:"total_weighted"`
	// Makespan is the claimed largest completion time.
	Makespan int64 `json:"makespan"`
}

// FromTranscript converts a switchsim execution into checkable form.
func FromTranscript(tr *switchsim.Transcript, res *switchsim.Result) *Recorded {
	rec := &Recorded{
		Ports:         tr.Ports,
		Services:      make([]Service, len(tr.Services)),
		Completion:    res.Completion,
		TotalWeighted: res.TotalWeighted,
		Makespan:      res.Makespan,
	}
	for i, s := range tr.Services {
		rec.Services[i] = Service{Slot: s.Slot, Src: s.Src, Dst: s.Dst, Coflow: s.Coflow}
	}
	return rec
}

// Recorder accumulates an online run (a sequence of StepResults whose
// keys are instance indices) into a Recorded for validation.
type Recorder struct {
	rec Recorded
}

// NewRecorder starts a recording for an m-port switch.
func NewRecorder(ports int) *Recorder {
	return &Recorder{rec: Recorded{Ports: ports}}
}

// Observe appends one slot's services. The StepResult's buffers are
// copied, so the caller may keep stepping.
func (r *Recorder) Observe(res online.StepResult) {
	for _, a := range res.Served {
		r.rec.Services = append(r.rec.Services, Service{
			Slot: res.Slot, Src: a.Src, Dst: a.Dst, Coflow: a.Key,
		})
	}
}

// Finish attaches the scheduler's claims and returns the recording.
func (r *Recorder) Finish(completion []int64, totalWeighted float64, makespan int64) *Recorded {
	r.rec.Completion = completion
	r.rec.TotalWeighted = totalWeighted
	r.rec.Makespan = makespan
	return &r.rec
}

// Schedule validates a recorded schedule against its instance and
// returns every violated invariant (nil means the schedule is a
// feasible solution of (O) and all its claims check out). At most
// MaxViolations are reported.
func Schedule(ins *coflowmodel.Instance, rec *Recorded) []Violation {
	var c collector
	if err := ins.Validate(); err != nil {
		c.add(Violation{Kind: KindBadInstance, Slot: -1, Coflow: -1, Port: -1, Msg: err.Error()})
		return c.vs
	}
	n := len(ins.Coflows)
	if rec.Ports != ins.Ports {
		c.add(Violation{Kind: KindPortMismatch, Slot: -1, Coflow: -1, Port: -1,
			Msg: fmt.Sprintf("schedule recorded for %d ports, instance has %d", rec.Ports, ins.Ports)})
		return c.vs
	}
	if len(rec.Completion) != n {
		c.add(Violation{Kind: KindBadCompletion, Slot: -1, Coflow: -1, Port: -1,
			Msg: fmt.Sprintf("%d completion times for %d coflows", len(rec.Completion), n)})
		return c.vs
	}

	// Demand bookkeeping per (coflow, src, dst).
	type pairKey struct{ coflow, src, dst int }
	remaining := make(map[pairKey]int64)
	for k := range ins.Coflows {
		for _, f := range ins.Coflows[k].Flows {
			if f.Size > 0 {
				remaining[pairKey{k, f.Src, f.Dst}] += f.Size
			}
		}
	}

	// Per-slot matching constraints. Services may arrive in any order,
	// so occupancy is keyed by (slot, port).
	type portKey struct {
		slot int64
		port int
	}
	srcBusy := make(map[portKey]bool)
	dstBusy := make(map[portKey]bool)
	lastService := make([]int64, n)
	for i := range lastService {
		lastService[i] = -1
	}

	for _, s := range rec.Services {
		if s.Coflow < 0 || s.Coflow >= n {
			c.add(Violation{Kind: KindBadService, Slot: s.Slot, Coflow: s.Coflow, Port: -1,
				Msg: fmt.Sprintf("service names unknown coflow %d", s.Coflow)})
			continue
		}
		if s.Src < 0 || s.Src >= ins.Ports || s.Dst < 0 || s.Dst >= ins.Ports {
			c.add(Violation{Kind: KindBadService, Slot: s.Slot, Coflow: s.Coflow, Port: s.Src,
				Msg: fmt.Sprintf("service (%d→%d) outside %d ports", s.Src, s.Dst, ins.Ports)})
			continue
		}
		if s.Slot < 1 {
			c.add(Violation{Kind: KindBadService, Slot: s.Slot, Coflow: s.Coflow, Port: -1,
				Msg: fmt.Sprintf("service in non-positive slot %d", s.Slot)})
			continue
		}
		if r := ins.Coflows[s.Coflow].Release; s.Slot <= r {
			c.add(Violation{Kind: KindPreRelease, Slot: s.Slot, Coflow: s.Coflow, Port: -1,
				Msg: fmt.Sprintf("coflow %d served in slot %d, at or before release %d", s.Coflow, s.Slot, r)})
		}
		if srcBusy[portKey{s.Slot, s.Src}] {
			c.add(Violation{Kind: KindDoubleBooked, Slot: s.Slot, Coflow: s.Coflow, Port: s.Src,
				Msg: fmt.Sprintf("ingress %d serves two units in slot %d", s.Src, s.Slot)})
		}
		if dstBusy[portKey{s.Slot, s.Dst}] {
			c.add(Violation{Kind: KindDoubleBooked, Slot: s.Slot, Coflow: s.Coflow, Port: s.Dst,
				Msg: fmt.Sprintf("egress %d serves two units in slot %d", s.Dst, s.Slot)})
		}
		srcBusy[portKey{s.Slot, s.Src}] = true
		dstBusy[portKey{s.Slot, s.Dst}] = true
		key := pairKey{s.Coflow, s.Src, s.Dst}
		if remaining[key] <= 0 {
			c.add(Violation{Kind: KindOverServed, Slot: s.Slot, Coflow: s.Coflow, Port: -1,
				Msg: fmt.Sprintf("coflow %d over-served on (%d→%d) in slot %d", s.Coflow, s.Src, s.Dst, s.Slot)})
		} else {
			remaining[key]--
		}
		if s.Slot > lastService[s.Coflow] {
			lastService[s.Coflow] = s.Slot
		}
	}

	// Conservation: every unit of demand served exactly once.
	unserved := make([]int64, n)
	for key, rem := range remaining {
		if rem > 0 {
			unserved[key.coflow] += rem
		}
	}
	for k, rem := range unserved {
		if rem > 0 {
			c.add(Violation{Kind: KindUnderServed, Slot: -1, Coflow: k, Port: -1,
				Msg: fmt.Sprintf("coflow %d leaves %d units unserved", k, rem)})
		}
	}

	// Claimed completions equal last-service slots.
	for k := 0; k < n; k++ {
		want := lastService[k]
		if want < 0 {
			want = ins.Coflows[k].Release
		}
		if rec.Completion[k] != want {
			c.add(Violation{Kind: KindBadCompletion, Slot: rec.Completion[k], Coflow: k, Port: -1,
				Msg: fmt.Sprintf("coflow %d claims completion %d, services say %d", k, rec.Completion[k], want)})
		}
	}

	// Claimed objectives match recomputation from the claimed
	// completions (completion consistency is checked above, so a clean
	// run ties the objectives all the way back to the services).
	var tw float64
	var makespan int64
	for k := range ins.Coflows {
		tw += ins.Coflows[k].Weight * float64(rec.Completion[k])
		if rec.Completion[k] > makespan {
			makespan = rec.Completion[k]
		}
	}
	if !floatEq(tw, rec.TotalWeighted) {
		c.add(Violation{Kind: KindBadObjective, Slot: -1, Coflow: -1, Port: -1,
			Msg: fmt.Sprintf("claimed total weighted completion %g, recomputed %g", rec.TotalWeighted, tw)})
	}
	if makespan != rec.Makespan {
		c.add(Violation{Kind: KindBadObjective, Slot: -1, Coflow: -1, Port: -1,
			Msg: fmt.Sprintf("claimed makespan %d, recomputed %d", rec.Makespan, makespan)})
	}
	return c.vs
}

// floatEq compares objective values with a tolerance for the float
// summation order (completions are integers, so agreement should in
// practice be exact; the epsilon guards against alternative
// accumulation orders in callers).
func floatEq(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}
