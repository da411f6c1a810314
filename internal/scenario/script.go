// Package scenario is the workload stress layer: it composes arrival
// processes, demand shapers, churn models and failure injection into
// timed event scripts, and replays them against the online scheduling
// stack — in-process (online.State + online.Planner under a
// check.Monitor) or over HTTP against a sharded cluster
// (internal/shard's TestScenariosOverHTTP, the benchmark harness).
//
// The paper's experiments (§4) run one friendly batch distribution;
// the authors' follow-up experimental work evaluates the same
// algorithms under release dates and varied workload mixes. A script
// is that methodology made concrete and replayable: a deterministic,
// JSON-serializable stream of register / cancel / port-failure events
// that both replay drivers consume unchanged, so an invariant
// violation found in one plane reproduces in the other.
package scenario

import (
	"encoding/json"
	"fmt"
	"sort"

	"coflow/internal/coflowmodel"
)

// Op is the kind of one scripted event.
type Op string

const (
	// OpRegister introduces a coflow: Key, Weight and Flows are set,
	// and the event's slot is the coflow's release date.
	OpRegister Op = "register"
	// OpCancel removes a coflow mid-flight. At replay time the coflow
	// may already have completed — that race is the point; drivers
	// count such hits as expected churn, never as errors.
	OpCancel Op = "cancel"
	// OpFail takes a switch port offline: demand touching it parks
	// (is never dropped) until OpRecover.
	OpFail Op = "fail"
	// OpRecover brings a failed port back.
	OpRecover Op = "recover"
)

// Event is one timed entry of a script. Slot is when it takes effect:
// all events at slot s apply before slot s is served.
type Event struct {
	Slot int64 `json:"slot"`
	Op   Op    `json:"op"`
	// Key identifies the coflow for register/cancel. Keys may be
	// reused by a later register only after an intervening cancel
	// (the churn model's re-registration).
	Key int `json:"key,omitempty"`
	// Weight is the coflow's objective weight (register only;
	// defaults to 1 when omitted).
	Weight float64 `json:"weight,omitempty"`
	// Flows is the coflow's demand (register only).
	Flows []coflowmodel.Flow `json:"flows,omitempty"`
	// Port is the switch port for fail/recover.
	Port int `json:"port,omitempty"`
}

// Script is a replayable workload: a fabric size plus a slot-ordered
// event stream. Scripts are deterministic and JSON round-trippable —
// the same bytes drive the in-process and the HTTP replay drivers.
type Script struct {
	// Name labels reports and reproducer dumps.
	Name string `json:"name"`
	// Ports is the switch size m every event is validated against.
	Ports int `json:"ports"`
	// Events is sorted by Slot (stable within a slot).
	Events []Event `json:"events"`
}

// Validate checks the script: a positive fabric, slot-sorted events,
// in-range flows and ports, and a consistent per-key lifecycle
// (register → cancel → optional re-register). Cancelling a key that
// was never registered is an error; cancelling one that may already
// have completed at replay time is not — completion timing is the
// scheduler's business, not the script's.
func (s *Script) Validate() error {
	if s.Ports <= 0 {
		return fmt.Errorf("scenario: non-positive port count %d", s.Ports)
	}
	if len(s.Events) == 0 {
		return fmt.Errorf("scenario: script %q has no events", s.Name)
	}
	live := map[int]bool{}  // key currently registered (not yet cancelled)
	known := map[int]bool{} // key registered at least once
	var prev int64
	for i, ev := range s.Events {
		if ev.Slot < 0 {
			return fmt.Errorf("scenario: event %d has negative slot %d", i, ev.Slot)
		}
		if ev.Slot < prev {
			return fmt.Errorf("scenario: event %d (slot %d) out of order after slot %d", i, ev.Slot, prev)
		}
		prev = ev.Slot
		switch ev.Op {
		case OpRegister:
			if ev.Key <= 0 {
				return fmt.Errorf("scenario: event %d registers non-positive key %d", i, ev.Key)
			}
			if live[ev.Key] {
				return fmt.Errorf("scenario: event %d re-registers live key %d without a cancel", i, ev.Key)
			}
			if ev.Weight < 0 {
				return fmt.Errorf("scenario: event %d has negative weight %g", i, ev.Weight)
			}
			var total int64
			for _, f := range ev.Flows {
				if f.Src < 0 || f.Src >= s.Ports || f.Dst < 0 || f.Dst >= s.Ports {
					return fmt.Errorf("scenario: event %d flow (%d→%d) outside %d ports", i, f.Src, f.Dst, s.Ports)
				}
				if f.Size < 0 {
					return fmt.Errorf("scenario: event %d has negative flow size %d", i, f.Size)
				}
				total += f.Size
			}
			if total == 0 {
				return fmt.Errorf("scenario: event %d registers key %d with no demand", i, ev.Key)
			}
			live[ev.Key], known[ev.Key] = true, true
		case OpCancel:
			if !known[ev.Key] {
				return fmt.Errorf("scenario: event %d cancels unknown key %d", i, ev.Key)
			}
			if !live[ev.Key] {
				return fmt.Errorf("scenario: event %d cancels key %d twice", i, ev.Key)
			}
			live[ev.Key] = false
		case OpFail, OpRecover:
			if ev.Port < 0 || ev.Port >= s.Ports {
				return fmt.Errorf("scenario: event %d %ss port %d outside %d ports", i, ev.Op, ev.Port, s.Ports)
			}
		default:
			return fmt.Errorf("scenario: event %d has unknown op %q", i, ev.Op)
		}
	}
	return nil
}

// TotalDemand sums the demand of every register event.
func (s *Script) TotalDemand() int64 {
	var total int64
	for _, ev := range s.Events {
		if ev.Op != OpRegister {
			continue
		}
		for _, f := range ev.Flows {
			total += f.Size
		}
	}
	return total
}

// Horizon is a generous slot bound for replaying the script: the last
// event plus every unit of demand plus one recovery pass per port. A
// non-stalled scheduler finishes well inside it; the drivers treat
// exceeding it as a stall.
func (s *Script) Horizon() int64 {
	var last int64
	for _, ev := range s.Events {
		if ev.Slot > last {
			last = ev.Slot
		}
	}
	return last + s.TotalDemand() + int64(s.Ports) + 1
}

// sortEvents orders events by slot, keeping the generation order
// within a slot (cancels emitted before re-registers stay that way).
func sortEvents(events []Event) {
	sort.SliceStable(events, func(a, b int) bool { return events[a].Slot < events[b].Slot })
}

// Parse decodes and validates a JSON script.
func Parse(data []byte) (*Script, error) {
	var s Script
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: bad script JSON: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Encode renders the script as indented JSON. Parse(Encode(s)) is the
// identity on validated scripts.
func (s *Script) Encode() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}
