package switchsim

import (
	"fmt"

	"coflow/internal/coflowmodel"
	"coflow/internal/matrix"
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
// install, and the object the feasibility validator checks.
type Transcript struct {
	Ports    int
	Services []UnitService
}

// ExecuteRecorded runs the plan like Execute while recording every
// unit transfer. It is slot-granular internally — in each slot each
// matched pair serves at most one unit — so the transcript is exact,
// and it must produce exactly the completion times Execute does, which
// makes it the independent cross-check of the block arithmetic. Slower
// than Execute; use it for export, debugging, and validation.
func ExecuteRecorded(plan *Plan) (*Result, *Transcript, error) {
	e, err := newExecutor(plan)
	if err != nil {
		return nil, nil, err
	}
	defer e.release()
	tr := &Transcript{Ports: plan.Ins.Ports}
	var t int64
	matchings := 0
	for _, st := range plan.Stages {
		for pos := st.Start; pos < st.End; pos++ {
			if r := plan.Ins.Coflows[plan.Order[pos]].Release; r > t {
				t = r
			}
		}
		d := e.stageMatrix(st)
		if d.IsZero() {
			continue
		}
		dec, err := e.dec.Decompose(d)
		if err != nil {
			return nil, nil, err
		}
		for _, term := range dec.Terms {
			blockStart := t
			for s := int64(0); s < term.Count; s++ {
				for i, j := range term.Perm.To {
					if j == matrix.Unmatched {
						continue
					}
					pair := i*e.m + j
					if k, served := e.serveOneSlotRecorded(pair, blockStart, t+1, st.End); served {
						tr.Services = append(tr.Services, UnitService{
							Slot: t + 1, Src: i, Dst: j, Coflow: k,
						})
					}
				}
				t++
			}
			matchings++
		}
	}
	res, err := e.finish(t, matchings)
	if err != nil {
		return nil, nil, err
	}
	return res, tr, nil
}

// serveOneSlotRecorded serves a single unit on pair at absolute slot
// `slot`, with backfill eligibility evaluated at blockStart (the same
// rule the block executor uses), and reports which coflow it served.
func (e *executor) serveOneSlotRecorded(pair int, blockStart, slot int64, stEnd int) (int, bool) {
	q := e.queue(pair)
	for idx := e.head[pair]; idx < len(q); idx++ {
		it := &q[idx]
		if it.remaining == 0 {
			if idx == e.head[pair] {
				e.head[pair]++
			}
			continue
		}
		if it.pos >= stEnd {
			if !e.plan.Backfill {
				return 0, false
			}
			if e.plan.Ins.Coflows[it.coflow].Release > blockStart {
				continue
			}
		}
		it.remaining--
		e.remain[it.coflow]--
		if slot > e.lastSrv[it.coflow] {
			e.lastSrv[it.coflow] = slot
		}
		if it.remaining == 0 && idx == e.head[pair] {
			e.head[pair]++
		}
		return it.coflow, true
	}
	return 0, false
}

// ValidateTranscript checks a transcript against the paper's
// formulation (O): the matching constraints (2)–(3) per slot, the
// release-date constraint (4), and the load constraints (1) — every
// unit of demand served exactly once, none invented. It also verifies
// that the claimed completion times equal each coflow's last service
// slot. A nil return certifies feasibility.
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
