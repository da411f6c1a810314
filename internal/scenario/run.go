package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"coflow/internal/check"
	"coflow/internal/online"
	"coflow/internal/stats"
)

// Options tunes an in-process replay.
type Options struct {
	// Policy orders coflows each slot (FIFO, SEBF, WSPT).
	Policy online.Policy
	// Plan drives an online.Planner alongside the scheduler, exactly
	// as coflowd -plan does: Add on register, Observe+Plan every slot,
	// Shed+Plan on cancel. Every slot the planner's load is checked
	// against the live demand's ρ — the invariant the shed-on-cancel
	// bugfix restores.
	Plan bool
	// Shadow replays through the check.Shadow differential oracle
	// (fast State vs dense Reference) instead of the bare State. Any
	// divergence minimizes to a JSON reproducer via the Shadow's own
	// machinery. Port failures and recoveries reach both sides.
	Shadow bool
	// ReproDir, when non-empty, receives a JSON reproducer (script +
	// violations) if the replay surfaces any violation. Shadow
	// divergences additionally dump their own minimized op logs here.
	ReproDir string
	// MaxSlots overrides the stall horizon (0 = Script.Horizon()).
	MaxSlots int64
}

// Report is the outcome of one replay.
type Report struct {
	Name   string `json:"name"`
	Policy string `json:"policy"`
	// Slots is the last slot served.
	Slots int64 `json:"slots"`

	Registered int `json:"registered"`
	Completed  int `json:"completed"`
	Cancelled  int `json:"cancelled"`
	// CancelMisses counts cancel events that arrived after their
	// coflow completed — expected churn, not an error.
	CancelMisses int `json:"cancel_misses"`

	// The conservation ledger: every unit of registered demand must be
	// served, shed by a cancel, or still live when the replay ends
	// (zero at a clean end). Violations mean units were lost.
	DemandIn     int64 `json:"demand_in"`
	DemandServed int64 `json:"demand_served"`
	DemandShed   int64 `json:"demand_shed"`
	DemandLive   int64 `json:"demand_live"`

	// Violations aggregates monitor findings, conservation breaks,
	// planner-load mismatches and shadow divergences.
	Violations []string `json:"violations,omitempty"`
	// ReproPath is the reproducer written when Violations is
	// non-empty and Options.ReproDir was set.
	ReproPath string `json:"repro_path,omitempty"`

	// Slowdown summarizes C_k/(r_k+ρ_k) over completed coflows.
	Slowdown stats.Summary `json:"slowdown"`
	// WeightedCompletion is Σ w_k·C_k over completed coflows.
	WeightedCompletion float64 `json:"weighted_completion"`
}

// regRec tracks one registration generation for the slowdown report.
type regRec struct {
	key     int
	weight  float64
	release int64
	ideal   int64 // release + standalone ρ
}

// Run replays the script in-process: events apply at their slot, the
// scheduler serves every slot, a check.Monitor validates each
// StepResult, and the demand ledger is re-balanced against the live
// state at every event boundary. It returns the report even when the
// replay surfaces violations; the error is reserved for broken
// scripts and stalls.
func Run(script *Script, opts Options) (*Report, error) {
	if err := script.Validate(); err != nil {
		return nil, err
	}
	rep := &Report{Name: script.Name, Policy: opts.Policy.String()}

	var shadow *check.Shadow
	state := online.NewState(script.Ports)
	if opts.Shadow {
		shadow = check.NewShadow(script.Ports, check.ShadowConfig{Dir: opts.ReproDir})
		state = shadow.State
	}
	mon := check.NewMonitor(script.Ports)
	var planner *online.Planner
	if opts.Plan {
		planner = online.NewPlanner(script.Ports)
	}

	violate := func(format string, args ...any) {
		if len(rep.Violations) < 32 { // keep reports bounded
			rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
		}
	}

	// Dense live row/col sums: the O(ports) oracle for the planner's
	// load and the conservation ledger.
	rows := make([]int64, script.Ports)
	cols := make([]int64, script.Ports)
	rho := func() int64 {
		var b int64
		for p := 0; p < script.Ports; p++ {
			if rows[p] > b {
				b = rows[p]
			}
			if cols[p] > b {
				b = cols[p]
			}
		}
		return b
	}

	live := map[int]*regRec{}
	var keysBuf []int
	horizon := opts.MaxSlots
	if horizon <= 0 {
		horizon = script.Horizon()
	}

	apply := func(ev Event) error {
		switch ev.Op {
		case OpRegister:
			weight := ev.Weight
			if weight == 0 {
				weight = 1
			}
			var total int64
			var err error
			if shadow != nil {
				total, err = shadow.Add(ev.Key, weight, ev.Slot, ev.Flows)
			} else {
				total, err = state.Add(ev.Key, weight, ev.Slot, ev.Flows)
			}
			if err != nil {
				return fmt.Errorf("scenario: register key %d at slot %d: %w", ev.Key, ev.Slot, err)
			}
			mon.Add(ev.Key, ev.Slot, ev.Flows)
			if planner != nil {
				if err := planner.Add(ev.Flows); err != nil {
					return fmt.Errorf("scenario: planner.Add key %d: %w", ev.Key, err)
				}
			}
			var load int64
			rowsOf := map[int]int64{}
			colsOf := map[int]int64{}
			for _, f := range ev.Flows {
				rows[f.Src] += f.Size
				cols[f.Dst] += f.Size
				rowsOf[f.Src] += f.Size
				colsOf[f.Dst] += f.Size
			}
			for _, v := range rowsOf {
				if v > load {
					load = v
				}
			}
			for _, v := range colsOf {
				if v > load {
					load = v
				}
			}
			rep.Registered++
			rep.DemandIn += total
			rep.DemandLive += total
			live[ev.Key] = &regRec{key: ev.Key, weight: weight, release: ev.Slot, ideal: ev.Slot + load}
		case OpCancel:
			if _, ok := live[ev.Key]; !ok {
				rep.CancelMisses++ // completed before the cancel landed
				return nil
			}
			ent := state.Demand(ev.Key)
			var shedAmt int64
			for _, e := range ent {
				shedAmt += e.Val
				rows[e.Row] -= e.Val
				cols[e.Col] -= e.Val
			}
			if planner != nil {
				if err := planner.Shed(ent); err != nil {
					return fmt.Errorf("scenario: planner.Shed key %d: %w", ev.Key, err)
				}
				if _, err := planner.Plan(); err != nil {
					return fmt.Errorf("scenario: planner.Plan after shed: %w", err)
				}
			}
			if shadow != nil {
				shadow.Remove(ev.Key)
			} else {
				state.Remove(ev.Key)
			}
			mon.Remove(ev.Key)
			delete(live, ev.Key)
			rep.Cancelled++
			rep.DemandShed += shedAmt
			rep.DemandLive -= shedAmt
		case OpFail:
			var err error
			if shadow != nil {
				err = shadow.FailPort(ev.Port)
			} else {
				err = state.FailPort(ev.Port)
			}
			if err != nil {
				return fmt.Errorf("scenario: fail port %d: %w", ev.Port, err)
			}
			mon.FailPort(ev.Port)
		case OpRecover:
			var err error
			if shadow != nil {
				err = shadow.RecoverPort(ev.Port)
			} else {
				err = state.RecoverPort(ev.Port)
			}
			if err != nil {
				return fmt.Errorf("scenario: recover port %d: %w", ev.Port, err)
			}
			mon.RecoverPort(ev.Port)
		}
		return nil
	}

	// checkLedger re-balances the ledger against the authoritative
	// live state: registered == served + shed + live, with the live
	// term independently recounted. Demand parked on a failed port
	// must still be here — parked, never dropped.
	checkLedger := func(at int64) {
		var actual int64
		keysBuf = state.Keys(keysBuf[:0])
		for _, k := range keysBuf {
			if rem, ok := state.Remaining(k); ok {
				actual += rem
			}
		}
		if actual != rep.DemandLive {
			violate("slot %d: live demand %d, ledger says %d (units lost or duplicated)", at, actual, rep.DemandLive)
		}
		if rep.DemandIn != rep.DemandServed+rep.DemandShed+rep.DemandLive {
			violate("slot %d: ledger broke: in %d != served %d + shed %d + live %d",
				at, rep.DemandIn, rep.DemandServed, rep.DemandShed, rep.DemandLive)
		}
	}

	events := script.Events
	ei := 0
	var t int64
	var completion []float64 // slowdowns of completed coflows
	for state.Len() > 0 || ei < len(events) {
		s := t + 1
		if state.Len() == 0 && events[ei].Slot > s {
			s = events[ei].Slot // fast-forward an idle fabric
		}
		applied := false
		for ei < len(events) && events[ei].Slot <= s {
			if err := apply(events[ei]); err != nil {
				return rep, err
			}
			ei++
			applied = true
		}
		if applied {
			checkLedger(s)
		}

		var res online.StepResult
		if shadow != nil {
			var div *check.Divergence
			res, div = shadow.Step(s, opts.Policy)
			if div != nil {
				violate("slot %d: shadow diverged: %s (repro: %s)", s, div.Reason, div.ReproPath)
				if rep.ReproPath == "" {
					rep.ReproPath = div.ReproPath
				}
			}
		} else {
			res = state.Step(s, opts.Policy)
		}
		for _, v := range mon.Observe(res, true) {
			violate("monitor: %s", v.Msg)
		}
		n := int64(len(res.Served))
		rep.DemandServed += n
		rep.DemandLive -= n
		for _, a := range res.Served {
			rows[a.Src]--
			cols[a.Dst]--
		}
		for _, k := range res.Completed {
			rec, ok := live[k]
			if !ok {
				violate("slot %d: completion for untracked key %d", s, k)
				continue
			}
			rep.Completed++
			rep.WeightedCompletion += rec.weight * float64(s)
			if rec.ideal > 0 {
				completion = append(completion, float64(s)/float64(rec.ideal))
			} else {
				completion = append(completion, 1)
			}
			delete(live, k)
		}
		if planner != nil {
			if err := planner.Observe(res.Served); err != nil {
				return rep, fmt.Errorf("scenario: planner.Observe at slot %d: %w", s, err)
			}
			if _, err := planner.Plan(); err != nil {
				return rep, fmt.Errorf("scenario: planner.Plan at slot %d: %w", s, err)
			}
			if got, want := planner.Load(), rho(); got != want {
				violate("slot %d: planner load %d, live demand ρ %d (stale plan)", s, got, want)
			}
		}
		t = s
		if t > horizon {
			return rep, fmt.Errorf("scenario: %q exceeded horizon %d with %d coflows live (scheduler stalled)",
				script.Name, horizon, state.Len())
		}
	}
	rep.Slots = t
	rep.Slowdown = stats.Summarize(completion)
	if len(rep.Violations) > 0 && opts.ReproDir != "" && rep.ReproPath == "" {
		rep.ReproPath = dumpReproducer(opts.ReproDir, script, rep.Violations)
	}
	return rep, nil
}

// dumpReproducer writes the script plus the violations it provoked as
// a JSON file and returns its path ("" if the write failed — the
// violations are still in the report).
func dumpReproducer(dir string, script *Script, violations []string) string {
	path := filepath.Join(dir, "scenario-"+script.Name+"-repro.json")
	blob, err := json.MarshalIndent(map[string]any{
		"script":     script,
		"violations": violations,
	}, "", "  ")
	if err != nil {
		return ""
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return ""
	}
	return path
}
