package switchsim

import (
	"fmt"

	"coflow/internal/coflowmodel"
)

// UnitService records a single data unit's transfer: one unit of
// coflow Coflow moved from port Src to port Dst during slot Slot.
type UnitService struct {
	Slot   int64
	Src    int
	Dst    int
	Coflow int // index into the instance's Coflows
}

// Transcript is a complete, unit-level record of an executed schedule.
// It is the exportable artifact a real fabric controller would
// install, and the object the feasibility validator checks. Services
// are grouped by BvN term, in schedule order; within a term they come
// in any order (pair by pair, each pair's units in slot order), so a
// reader that needs them by slot sorts them.
type Transcript struct {
	Ports    int
	Services []UnitService
}

// ExecuteRecorded is Execute with a unit-level transcript: the same
// stage loop and block arithmetic, with every served unit appended to
// the transcript as it is served. For export, display and validation;
// the transcript costs one UnitService per unit of demand.
func ExecuteRecorded(plan *Plan) (*Result, *Transcript, error) {
	tr := &Transcript{Ports: plan.Ins.Ports}
	res, err := execute(plan, tr)
	if err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

// ValidateTranscript checks a transcript against the paper's
// formulation (O): the matching constraints (2)–(3) per slot, the
// release-date constraint (4), and the load constraints (1) — every
// unit of demand served exactly once, none invented. It also verifies
// that the claimed completion times equal each coflow's last service
// slot. A nil return certifies feasibility.
//
// Outside tests only benchmark/batch.go reads it: cmd/coflowsim and
// examples/mapreduce validate with check.Schedule, which reports every
// violation by kind. It goes with the next benchmark PR, which moves
// that last caller too (ROADMAP item 6).
func ValidateTranscript(ins *coflowmodel.Instance, tr *Transcript, completion []int64) error {
	if tr.Ports != ins.Ports {
		return fmt.Errorf("switchsim: transcript for %d ports, instance has %d", tr.Ports, ins.Ports)
	}
	if len(completion) != len(ins.Coflows) {
		return fmt.Errorf("switchsim: %d completions for %d coflows", len(completion), len(ins.Coflows))
	}
	// Demand bookkeeping.
	type pairKey struct {
		coflow, src, dst int
	}
	remaining := map[pairKey]int64{}
	for k := range ins.Coflows {
		for _, f := range ins.Coflows[k].Flows {
			if f.Size > 0 {
				remaining[pairKey{k, f.Src, f.Dst}] += f.Size
			}
		}
	}
	// Per-slot matching constraints.
	type portKey struct {
		slot int64
		port int
	}
	srcBusy := map[portKey]bool{}
	dstBusy := map[portKey]bool{}
	lastService := make([]int64, len(ins.Coflows))
	for i := range lastService {
		lastService[i] = -1
	}
	for _, s := range tr.Services {
		if s.Coflow < 0 || s.Coflow >= len(ins.Coflows) {
			return fmt.Errorf("switchsim: service names unknown coflow %d", s.Coflow)
		}
		if s.Src < 0 || s.Src >= ins.Ports || s.Dst < 0 || s.Dst >= ins.Ports {
			return fmt.Errorf("switchsim: service outside port range: %+v", s)
		}
		if s.Slot <= ins.Coflows[s.Coflow].Release {
			return fmt.Errorf("switchsim: coflow %d served in slot %d before release %d (constraint 4)",
				s.Coflow, s.Slot, ins.Coflows[s.Coflow].Release)
		}
		if srcBusy[portKey{s.Slot, s.Src}] {
			return fmt.Errorf("switchsim: ingress %d double-booked in slot %d (constraint 2)", s.Src, s.Slot)
		}
		if dstBusy[portKey{s.Slot, s.Dst}] {
			return fmt.Errorf("switchsim: egress %d double-booked in slot %d (constraint 3)", s.Dst, s.Slot)
		}
		srcBusy[portKey{s.Slot, s.Src}] = true
		dstBusy[portKey{s.Slot, s.Dst}] = true
		key := pairKey{s.Coflow, s.Src, s.Dst}
		if remaining[key] <= 0 {
			return fmt.Errorf("switchsim: phantom service %+v (no such demand left)", s)
		}
		remaining[key]--
		if s.Slot > lastService[s.Coflow] {
			lastService[s.Coflow] = s.Slot
		}
	}
	for key, rem := range remaining {
		if rem != 0 {
			return fmt.Errorf("switchsim: coflow %d leaves %d units unserved on (%d→%d) (constraint 1)",
				key.coflow, rem, key.src, key.dst)
		}
	}
	for k := range ins.Coflows {
		want := lastService[k]
		if want < 0 {
			want = ins.Coflows[k].Release
		}
		if completion[k] != want {
			return fmt.Errorf("switchsim: coflow %d claims completion %d, transcript says %d",
				k, completion[k], want)
		}
	}
	return nil
}
