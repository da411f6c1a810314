// Package daemon implements one switch fabric of coflowd, the resident
// coflow scheduling service: the "works in real time in a real system"
// operation the paper's concluding discussion asks for. It owns a
// virtual m×m switch whose live state is an online.State, advances it
// slot by slot on a tick, and takes registrations, cancellations and
// port failures as Go calls. It has no network surface of its own and
// hands out no coflow IDs: coflowd's HTTP/JSON control plane is
// internal/shard, which fronts one or more of these loops (a
// single-fabric deployment is a one-fabric cluster) and registers every
// coflow under a cluster-unique ID (RegisterWithID). The JSON documents
// that plane serves per fabric — Metrics, CoflowStatus, Snapshot,
// BulkResponse — are declared here.
//
// Concurrency model — single writer, snapshot readers:
//
//   - One event-loop goroutine owns ALL mutable scheduling state.
//     Registrations, cancellations and ticks arrive as commands over
//     one channel, so mutations are totally ordered and the scheduler
//     core needs no locks.
//   - After every mutation the loop publishes an immutable Snapshot
//     through an atomic.Pointer. Reads (status, schedule, metrics,
//     health) load the pointer and never touch the live state, so hot
//     GETs cannot contend with — or be blocked by — a scheduling tick.
//   - A ticker goroutine converts wall-clock time into tick commands.
//     If the loop is still busy when a tick fires, the tick is
//     dropped and counted (TicksSkipped) rather than queued, so the
//     daemon degrades by slowing its virtual clock instead of
//     building an unbounded backlog.
//
// Deadline guard: when Config.Deadline > 0 and a scheduling step
// exceeds it, the daemon degrades to the cheap FIFO policy and only
// returns to the configured policy after degradeHold consecutive
// under-budget ticks (hysteresis, to avoid flapping at the boundary).
package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"coflow/internal/check"
	"coflow/internal/coflowmodel"
	"coflow/internal/obs"
	"coflow/internal/online"
	"coflow/internal/stats"
)

// ErrClosed is returned for operations on a daemon that has shut down.
var ErrClosed = errors.New("daemon: closed")

// ErrUnknownCoflow is returned when an operation names a coflow ID
// this daemon has never seen. The HTTP plane maps it to 404.
var ErrUnknownCoflow = errors.New("daemon: unknown coflow")

// ErrTerminalCoflow is returned when a cancellation names a coflow
// that already reached a terminal state (completed or cancelled).
// Distinct from ErrUnknownCoflow so churn-heavy clients can tell a
// lost race against completion (expected under load) from a genuinely
// bogus ID; the HTTP plane maps it to a structured 409 with kind
// "terminal_coflow".
var ErrTerminalCoflow = errors.New("daemon: terminal coflow")

// degradeHold is the number of consecutive under-budget FIFO ticks
// required before the configured policy is restored.
const degradeHold = 32

// Config parametrizes a Daemon.
type Config struct {
	// Ports is the switch size m. Required, positive.
	Ports int
	// Policy is the scheduling priority (online.FIFO/SEBF/WSPT).
	Policy online.Policy
	// Tick is the real-time duration of one slot. Zero or negative
	// disables the internal ticker; slots then advance only via
	// Tick() (used by tests and by drivers with their own clock).
	Tick time.Duration
	// Deadline is the per-tick scheduling budget; a step exceeding it
	// degrades the policy to FIFO (see package comment). Zero
	// disables the guard.
	Deadline time.Duration
	// SnapshotPath, if non-empty, is where Close writes the final
	// state snapshot as JSON.
	SnapshotPath string
	// Window is the rolling-window capacity for latency and slowdown
	// summaries; zero means 1024.
	Window int
	// SelfCheck runs an independent invariant monitor (internal/check)
	// inside the tick loop, validating sampled slots against the
	// formulation's feasibility invariants. Violations are counted in
	// /v1/metrics. Off by default.
	SelfCheck bool
	// SelfCheckEvery validates every k-th tick when SelfCheck is on
	// (bookkeeping still runs every tick, so sampling stays sound);
	// zero means 8, 1 validates every tick.
	SelfCheckEvery int
	// Plan maintains a live Birkhoff–von Neumann plan of the aggregate
	// backlog alongside the greedy tick (online.Planner backed by
	// bvn.Decomposer): Algorithm 1 on the whole backlog after every
	// tick that served and every cancel. Its ρ and term count surface in
	// /v1/metrics as the optimal-clearing-time reference the greedy
	// schedule is compared against. Off by default.
	Plan bool
}

// CoflowStatus is the externally visible state of one coflow.
type CoflowStatus struct {
	ID          int     `json:"id"`
	Weight      float64 `json:"weight"`
	Release     int64   `json:"release"`
	TotalDemand int64   `json:"total_demand"`
	Remaining   int64   `json:"remaining"`
	// Load is ρ(D): the standalone lower bound on slots to clear.
	Load int64 `json:"load"`
	// State is "active", "completed" or "cancelled".
	State string `json:"state"`
	// Completed is the completion slot (present when State is
	// "completed"; a zero-demand coflow completes at its release).
	Completed int64 `json:"completed,omitempty"`
	// Slowdown is Completed / (Release + Load), the standard quality
	// metric (1.0 is unimprovable). Present when completed.
	Slowdown float64 `json:"slowdown,omitempty"`
}

// Metrics is the live observability payload of GET /v1/metrics.
type Metrics struct {
	Slot          int64   `json:"slot"`
	Ticks         int64   `json:"ticks"`
	TicksSkipped  int64   `json:"ticks_skipped"`
	Policy        string  `json:"policy"`
	ActivePolicy  string  `json:"active_policy"`
	Degraded      bool    `json:"degraded"`
	ActiveCoflows int     `json:"active_coflows"`
	Registered    int64   `json:"registered"`
	Completed     int64   `json:"completed"`
	Cancelled     int64   `json:"cancelled"`
	QueueDepth    int     `json:"queue_depth"`
	TotalWeighted float64 `json:"total_weighted_completion"`
	LastTickSecs  float64 `json:"last_tick_seconds"`
	// TickLatency summarizes the rolling window of per-slot
	// scheduling latencies, in seconds.
	TickLatency stats.Summary `json:"tick_latency"`
	// Slowdown summarizes the rolling window of completed-coflow
	// slowdowns.
	Slowdown stats.Summary `json:"slowdown"`
	// Wait summarizes the rolling window of completed-coflow queueing
	// delays in slots: completion − release − load, i.e. slots spent
	// beyond the standalone lower bound.
	Wait stats.Summary `json:"wait"`
	// Service summarizes the rolling window of completed-coflow ideal
	// service times in slots (the load ρ).
	Service stats.Summary `json:"service"`
	// StageLatency breaks the tick down by pipeline stage (seconds,
	// with p50/p99 estimated from the stage histograms).
	StageLatency StageLatency `json:"stage_latency"`
	// MatcherWarmStartHitRate is never set and not serialized: Step
	// has no replay path to count. The benchmark harness still reads
	// the field as online.warm_hit_rate, which is why it stays.
	MatcherWarmStartHitRate float64 `json:"-"`
	// Plan reports whether the BvN planner runs alongside the tick.
	Plan bool `json:"plan"`
	// PlanLoad is ρ(D) of the current aggregate backlog — the optimal
	// number of slots to clear it — from the most recent plan.
	PlanLoad int64 `json:"plan_load,omitempty"`
	// PlanTerms is the number of permutation terms in the current plan.
	PlanTerms int `json:"plan_terms,omitempty"`
	// PlanTermReuseHitRate is the fraction of term extractions served
	// from the recycled permutation-buffer pool (1.0 once warm).
	PlanTermReuseHitRate float64 `json:"plan_term_reuse_hit_rate,omitempty"`
	// PlanError records the error that disabled the planner, if any.
	PlanError string `json:"plan_error,omitempty"`
	// PortsFailed is the number of switch ports currently offline via
	// FailPort; FailedPorts lists them in ascending order. Demand on a
	// failed port is parked, not dropped, so ActiveCoflows includes
	// coflows that cannot currently make progress.
	PortsFailed int   `json:"ports_failed,omitempty"`
	FailedPorts []int `json:"failed_ports,omitempty"`
	// SelfCheck reports whether the invariant monitor is enabled.
	SelfCheck bool `json:"self_check"`
	// SelfCheckViolations counts invariant violations the monitor has
	// flagged since startup. Nonzero means a scheduler bug.
	SelfCheckViolations int64 `json:"self_check_violations"`
	// LastViolation describes the most recent violation, if any.
	LastViolation string `json:"last_violation,omitempty"`
}

// BulkItem is one per-item result of a bulk POST or DELETE
// /v1/coflows, index-aligned with the request array.
type BulkItem struct {
	Index   int    `json:"index"`
	ID      int    `json:"id,omitempty"`
	Release int64  `json:"release,omitempty"`
	Fabric  int    `json:"fabric"`
	Error   string `json:"error,omitempty"`
	Kind    string `json:"kind,omitempty"`
}

// BulkResponse is the body of a bulk POST or DELETE /v1/coflows:
// per-item results plus the accepted/rejected split.
type BulkResponse struct {
	Results []BulkItem `json:"results"`
	OK      int        `json:"ok"`
	Failed  int        `json:"failed"`
}

// Snapshot is the immutable read-side view published after every
// mutation, and the JSON document written at shutdown. Coflows is a
// layered CoflowView rather than a plain map so ingest-heavy bursts
// publish in O(1); its JSON form is still an object keyed by ID.
type Snapshot struct {
	Slot    int64       `json:"slot"`
	Coflows *CoflowView `json:"coflows"`
	// Schedule is the matching served in the most recent tick.
	Schedule []online.Assignment `json:"schedule"`
	Metrics  Metrics             `json:"metrics"`
}

// coflowInfo is the loop-private bookkeeping for one coflow. The
// "loop" guard names a serialization domain, not a mutex: only the
// single-writer event loop (see Daemon.loop) may touch these fields,
// which coflowvet's guardedby analyzer enforces.
type coflowInfo struct {
	id        int
	weight    float64
	release   int64
	total     int64
	load      int64
	completed int64 // completion slot, -1 while live; guarded by loop
	cancelled bool  // guarded by loop
	// terminal is the immutable published status once the coflow
	// completed or was cancelled. Terminal statuses never change, so
	// one allocation is shared by every subsequent snapshot instead of
	// being rebuilt per tick (snapshots would otherwise cost O(all
	// coflows ever registered) per slot on a long-running daemon).
	terminal *CoflowStatus // guarded by loop
}

// portOp selects a port lifecycle command.
type portOp int8

const (
	portNone portOp = iota
	portFail
	portRecover
)

type command struct {
	// exactly one of reg, tick, portOp, or cancel is set
	reg    *coflowmodel.Registration
	regID  int  // caller-chosen coflow ID of reg, > 0
	cancel int  // coflow ID, when > 0 and reg == nil
	tick   bool // advance one slot

	// port, with portOp set, is the port to fail or recover.
	port   int
	portOp portOp

	reply chan reply // nil for fire-and-forget ticker ticks
}

type reply struct {
	release int64 // assigned release slot (register)
	err     error
}

// Daemon is one resident fabric loop. Create with New, drive it through
// its methods (a shard.Cluster does, behind HTTP), and Close it to shut
// down.
type Daemon struct {
	cfg  config
	obs  *daemonObs
	cmds chan command
	quit chan struct{}
	done chan struct{} // loop exited
	snap atomic.Pointer[Snapshot]

	skippedTicks atomic.Int64
	closeOnce    sync.Once
	closeErr     error
}

// config is Config with defaults resolved.
type config struct {
	Config
}

// New validates cfg, starts the event loop (and the ticker when
// cfg.Tick > 0), and returns the running daemon.
func New(cfg Config) (*Daemon, error) {
	if cfg.Ports <= 0 {
		return nil, fmt.Errorf("daemon: non-positive port count %d", cfg.Ports)
	}
	switch cfg.Policy {
	case online.FIFO, online.SEBF, online.WSPT:
	default:
		return nil, fmt.Errorf("daemon: unknown policy %v", cfg.Policy)
	}
	if cfg.Window <= 0 {
		cfg.Window = 1024
	}
	if cfg.SelfCheckEvery <= 0 {
		cfg.SelfCheckEvery = 8
	}
	d := &Daemon{
		cfg:  config{cfg},
		obs:  newDaemonObs(),
		cmds: make(chan command, 64),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	d.snap.Store(&Snapshot{Coflows: &CoflowView{}, Metrics: Metrics{
		Policy: cfg.Policy.String(), ActivePolicy: cfg.Policy.String(),
	}})
	go d.loop()
	if cfg.Tick > 0 {
		go d.ticker()
	}
	return d, nil
}

// Snapshot returns the most recently published read-side view. The
// returned value is shared and must not be mutated.
func (d *Daemon) Snapshot() *Snapshot { return d.snap.Load() }

// RegisterWithID submits a coflow registration under a caller-chosen
// positive ID and returns its release slot; the coflow is released
// "now" (eligible from the next slot). A fabric hands out no IDs of its
// own: the sharded cluster in front of it assigns cluster-unique ones
// while each fabric keeps its local single-writer loop. It fails if the
// ID was ever used on this daemon (live, completed, or cancelled).
func (d *Daemon) RegisterWithID(id int, reg *coflowmodel.Registration) (release int64, err error) {
	if id <= 0 {
		return 0, fmt.Errorf("daemon: non-positive coflow id %d", id)
	}
	if err := reg.Validate(d.cfg.Ports); err != nil {
		return 0, err
	}
	r, err := d.send(command{reg: reg, regID: id})
	return r.release, err
}

// Ports returns the fabric's switch size m.
func (d *Daemon) Ports() int { return d.cfg.Ports }

// MetricsRegistry exposes the daemon's obs registry so an aggregating
// layer (the sharded cluster's /metrics) can render it with per-fabric
// labels. Callers must treat it as read-only.
func (d *Daemon) MetricsRegistry() *obs.Registry { return d.obs.reg }

// Cancel cancels the live coflow with the given ID. It fails if the
// ID is unknown or the coflow already completed.
func (d *Daemon) Cancel(id int) error {
	_, err := d.send(command{cancel: id})
	return err
}

// FailPort takes one switch port (both its ingress and egress side)
// offline: it leaves every subsequent matching until RecoverPort, and
// demand already routed through it is parked — never served, never
// dropped — so the affected coflows stall rather than complete or
// vanish. Idempotent. The optional BvN planner deliberately keeps
// covering parked demand, so PlanLoad reads as the clearing time once
// every port is healthy again.
func (d *Daemon) FailPort(port int) error {
	_, err := d.send(command{port: port, portOp: portFail})
	return err
}

// RecoverPort brings a failed port back online; parked demand resumes
// draining on the next tick. Idempotent.
func (d *Daemon) RecoverPort(port int) error {
	_, err := d.send(command{port: port, portOp: portRecover})
	return err
}

// Tick advances the virtual clock one slot synchronously. It is how
// tests (and external clocks, when Config.Tick is 0) drive the
// scheduler deterministically.
func (d *Daemon) Tick() error {
	_, err := d.send(command{tick: true})
	return err
}

// send submits a command and waits for the loop's reply; the returned
// error is either a submission failure (daemon closed) or the loop's
// verdict on the command itself.
func (d *Daemon) send(c command) (reply, error) {
	c.reply = make(chan reply, 1)
	select {
	case d.cmds <- c:
	case <-d.quit:
		return reply{}, ErrClosed
	}
	r := <-c.reply
	return r, r.err
}

// Close stops the ticker and the event loop, waits for the loop to
// exit, and writes the final state snapshot to Config.SnapshotPath if
// one is configured. Shut the HTTP server in front down first so
// in-flight requests drain. Close is idempotent.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		close(d.quit)
		<-d.done
		// Commands that raced past the quit check are failed by a
		// perpetual drain (started by the loop on exit), so no caller
		// of send can block forever.
		if d.cfg.SnapshotPath != "" {
			d.closeErr = d.writeSnapshot(d.cfg.SnapshotPath)
		}
	})
	return d.closeErr
}

// writeSnapshot dumps the final state as indented JSON, atomically: a
// failed or interrupted write must never leave a truncated document
// where a previous good snapshot (or nothing) was, so the encode goes
// to a temp file in the same directory which is renamed into place
// only after a clean close.
func (d *Daemon) writeSnapshot(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d.Snapshot()); err != nil {
		// Already failing: the encode error wins, the temp file is junk.
		_ = f.Close()
		_ = os.Remove(tmp) // best effort: the temp file is junk
		return fmt.Errorf("daemon: encode snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		// Already failing: best-effort removal of the unusable temp file.
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		// Already failing: best-effort removal of the unusable temp file.
		_ = os.Remove(tmp)
		return err
	}
	return nil
}

// ticker converts wall time into tick commands, dropping (and
// counting) ticks the loop cannot absorb in time.
func (d *Daemon) ticker() {
	t := time.NewTicker(d.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-d.quit:
			return
		case <-t.C:
			select {
			case d.cmds <- command{tick: true}:
			case <-d.quit:
				return
			default:
				d.skippedTicks.Add(1)
			}
		}
	}
}

// loop is the single writer: it owns every piece of mutable
// scheduling state below and is the only goroutine that touches it.
//
//coflow:singlewriter
func (d *Daemon) loop() {
	defer close(d.done)

	state := online.NewState(d.cfg.Ports)
	state.SetObs(d.obs.step)
	coflows := map[int]*coflowInfo{}
	var (
		slot         int64
		ticks        int64
		registered   int64
		completedN   int64
		cancelledN   int64
		totalWC      float64
		lastSchedule []online.Assignment
		lastTick     time.Duration
		degraded     bool
		goodTicks    int // consecutive under-budget ticks while degraded
	)
	latency := stats.NewRolling(d.cfg.Window)
	slowdown := stats.NewRolling(d.cfg.Window)
	waits := stats.NewRolling(d.cfg.Window)
	services := stats.NewRolling(d.cfg.Window)

	// Optional invariant monitor: independent demand bookkeeping that
	// validates sampled slots (see Config.SelfCheck). It lives in the
	// loop goroutine like everything else mutable.
	var (
		mon           *check.Monitor
		violations    int64
		lastViolation string
	)
	if d.cfg.SelfCheck {
		mon = check.NewMonitor(d.cfg.Ports)
	}

	// Optional BvN planner (see Config.Plan): a live decomposition of
	// the aggregate backlog, repaired incrementally as slots drain. A
	// planner error means the daemon's conservation bookkeeping is
	// broken; the planner disables itself and records why rather than
	// failing every subsequent tick.
	var (
		planner *online.Planner
		planErr string
	)
	if d.cfg.Plan {
		planner = online.NewPlanner(d.cfg.Ports)
		planner.SetObs(d.obs.plan)
	}
	planFail := func(err error) {
		planErr = err.Error()
		planner = nil
	}

	statusOf := func(id int, ci *coflowInfo) *CoflowStatus {
		if ci.terminal != nil {
			return ci.terminal
		}
		cs := &CoflowStatus{
			ID: id, Weight: ci.weight, Release: ci.release,
			TotalDemand: ci.total, Load: ci.load,
		}
		switch {
		case ci.cancelled:
			cs.State = "cancelled"
			ci.terminal = cs
		case ci.completed >= 0:
			cs.State = "completed"
			cs.Completed = ci.completed
			if denom := ci.release + ci.load; denom > 0 {
				cs.Slowdown = float64(ci.completed) / float64(denom)
			} else {
				cs.Slowdown = 1
			}
			ci.terminal = cs
		default:
			cs.State = "active"
			cs.Remaining, _ = state.Remaining(id)
		}
		return cs
	}

	// The published coflow table is layered (see CoflowView): every
	// mutation appends just the statuses it touched to a shared delta —
	// a register or cancel touches one coflow, a tick touches only the
	// coflows it served or completed (at most one per port pair), never
	// the whole table. The O(table) flatten runs only when the delta
	// outgrows a cap proportional to the table, so its cost is O(1)
	// amortized per delta entry and snapshots stay mostly shared.
	const minDelta = 512
	var (
		viewBase   = map[int]*CoflowStatus{}
		viewDeltas []viewDelta
		touched    []int
	)

	publish := func() {
		start := time.Now()
		deltaCap := len(viewBase) / 4
		if deltaCap < minDelta {
			deltaCap = minDelta
		}
		if len(viewDeltas)+len(touched) > deltaCap {
			base := make(map[int]*CoflowStatus, len(coflows))
			for id, ci := range coflows {
				base[id] = statusOf(id, ci)
			}
			// Old snapshots keep the previous backing array; starting a
			// fresh one here is what makes them immutable.
			viewBase, viewDeltas = base, nil
		} else {
			for _, id := range touched {
				viewDeltas = append(viewDeltas, viewDelta{id, statusOf(id, coflows[id])})
			}
		}
		touched = touched[:0]
		view := &Snapshot{
			Slot:     slot,
			Coflows:  &CoflowView{base: viewBase, delta: viewDeltas, n: len(viewDeltas)},
			Schedule: lastSchedule,
		}
		active := d.cfg.Policy
		if degraded {
			active = online.FIFO
		}
		view.Metrics = Metrics{
			Slot:          slot,
			Ticks:         ticks,
			TicksSkipped:  d.skippedTicks.Load(),
			Policy:        d.cfg.Policy.String(),
			ActivePolicy:  active.String(),
			Degraded:      degraded,
			ActiveCoflows: state.Len(),
			Registered:    registered,
			Completed:     completedN,
			Cancelled:     cancelledN,
			QueueDepth:    len(d.cmds),
			TotalWeighted: totalWC,
			LastTickSecs:  lastTick.Seconds(),
			TickLatency:   latency.Summary(),
			Slowdown:      slowdown.Summary(),

			Wait:         waits.Summary(),
			Service:      services.Summary(),
			StageLatency: d.obs.stageLatency(),

			SelfCheck:           d.cfg.SelfCheck,
			SelfCheckViolations: violations,
			LastViolation:       lastViolation,
		}
		if n := state.FailedPortCount(); n > 0 {
			view.Metrics.PortsFailed = n
			view.Metrics.FailedPorts = state.FailedPorts(make([]int, 0, n))
		}
		if d.cfg.Plan {
			view.Metrics.Plan = true
			view.Metrics.PlanError = planErr
			if planner != nil {
				view.Metrics.PlanLoad = planner.Load()
				view.Metrics.PlanTerms = planner.Terms()
				view.Metrics.PlanTermReuseHitRate = d.obs.plan.TermReuseHitRate()
			}
		}
		o := d.obs
		o.slot.Set(float64(slot))
		o.active.Set(float64(state.Len()))
		o.queueDepth.Set(float64(len(d.cmds)))
		o.ticksSkipped.Set(float64(d.skippedTicks.Load()))
		o.portsFailed.Set(float64(state.FailedPortCount()))
		o.totalWeighted.Set(totalWC)
		if degraded {
			o.degraded.Set(1)
		} else {
			o.degraded.Set(0)
		}
		d.snap.Store(view)
		o.publishSeconds.Observe(time.Since(start).Seconds())
	}

	// complete records ci's completion. Both callers — the tick that
	// served ci last, a zero-demand registration — have already touched
	// it, so its status is published once.
	complete := func(ci *coflowInfo, at int64) {
		ci.completed = at
		completedN++
		totalWC += ci.weight * float64(at)
		if denom := ci.release + ci.load; denom > 0 {
			slowdown.Observe(float64(at) / float64(denom))
		} else {
			slowdown.Observe(1)
		}
		wait := float64(at - ci.release - ci.load)
		if wait < 0 {
			wait = 0 // zero-demand coflows complete at release with load 0
		}
		waits.Observe(wait)
		services.Observe(float64(ci.load))
		d.obs.completed.Inc()
		d.obs.waitSlots.Observe(wait)
		d.obs.serviceSlots.Observe(float64(ci.load))
	}

	handle := func(c command) reply {
		switch {
		case c.reg != nil:
			// The ID (the shard router's cluster-unique sequence) must
			// never collide with anything this fabric has seen, live or
			// terminal.
			id := c.regID
			if _, exists := coflows[id]; exists {
				return reply{err: fmt.Errorf("daemon: duplicate coflow id %d", id)}
			}
			cf := c.reg.Coflow(id, slot)
			remaining, err := state.Add(id, cf.Weight, cf.Release, cf.Flows)
			if err != nil {
				return reply{err: err}
			}
			ci := &coflowInfo{
				id: id, weight: cf.Weight, release: slot,
				total: cf.TotalSize(), load: cf.Load(d.cfg.Ports),
				completed: -1,
			}
			coflows[id] = ci
			touched = append(touched, id)
			registered++
			d.obs.registered.Inc()
			if remaining == 0 {
				// No demand: complete the moment it is released.
				complete(ci, slot)
			} else {
				if mon != nil {
					mon.Add(id, slot, cf.Flows)
				}
				if planner != nil {
					if err := planner.Add(cf.Flows); err != nil {
						planFail(err)
					}
				}
			}
			return reply{release: slot}

		case c.tick:
			policy := d.cfg.Policy
			if degraded {
				policy = online.FIFO
			}
			start := time.Now()
			res := state.Step(slot+1, policy)
			elapsed := time.Since(start)
			slot++
			ticks++
			lastTick = elapsed
			latency.Observe(elapsed.Seconds())
			// Only the coflows this slot served have a new Remaining;
			// everything else's published status is still exact. Served
			// lists each coflow's assignments together, so one status per
			// coflow is published however many pairs served it.
			for i, a := range res.Served {
				if i == 0 || a.Key != res.Served[i-1].Key {
					touched = append(touched, a.Key)
				}
			}
			d.obs.ticks.Inc()
			d.obs.tickSeconds.Observe(elapsed.Seconds())
			// res.Served aliases the State's reusable buffer; copy it,
			// since the snapshot must stay immutable across ticks.
			lastSchedule = append([]online.Assignment(nil), res.Served...)
			if mon != nil && res.Active > 0 {
				validate := d.cfg.SelfCheckEvery == 1 || ticks%int64(d.cfg.SelfCheckEvery) == 0
				if vs := mon.Observe(res, validate); len(vs) > 0 {
					violations += int64(len(vs))
					lastViolation = vs[len(vs)-1].String()
					d.obs.selfCheckViolations.Add(int64(len(vs)))
				}
			}
			for _, id := range res.Completed {
				complete(coflows[id], slot)
			}
			if planner != nil {
				// Feed the served matching into the live plan, which
				// decomposes the backlog again if anything changed.
				if err := planner.Observe(res.Served); err != nil {
					planFail(err)
				} else if _, err := planner.Plan(); err != nil {
					planFail(err)
				}
			}
			if d.cfg.Deadline > 0 {
				switch {
				case elapsed > d.cfg.Deadline:
					degraded = true
					goodTicks = 0
				case degraded:
					if goodTicks++; goodTicks >= degradeHold {
						degraded = false
						goodTicks = 0
					}
				}
			}
			return reply{}

		case c.portOp != portNone:
			var err error
			if c.portOp == portFail {
				err = state.FailPort(c.port)
			} else {
				err = state.RecoverPort(c.port)
			}
			if err != nil {
				return reply{err: err}
			}
			if mon != nil {
				if c.portOp == portFail {
					mon.FailPort(c.port)
				} else {
					mon.RecoverPort(c.port)
				}
			}
			return reply{}

		default: // cancel
			ci, ok := coflows[c.cancel]
			if !ok {
				return reply{err: fmt.Errorf("%w %d", ErrUnknownCoflow, c.cancel)}
			}
			if ci.cancelled {
				return reply{err: fmt.Errorf("%w: coflow %d already cancelled", ErrTerminalCoflow, c.cancel)}
			}
			if ci.completed >= 0 {
				return reply{err: fmt.Errorf("%w: coflow %d already completed", ErrTerminalCoflow, c.cancel)}
			}
			if planner != nil {
				// The unserved remainder must leave the plan too; read it
				// before Remove discards it — and the cached plan must be
				// rebuilt HERE, not left to the next tick: this command's
				// publish reads PlanLoad/PlanTerms from the cached plan,
				// and a plan refreshed only by ticks keeps reporting the
				// cancelled demand until one arrives (forever, on an
				// externally clocked daemon). The refresh costs one
				// decomposition of the backlog.
				if err := planner.Shed(state.Demand(c.cancel)); err != nil {
					planFail(err)
				} else if _, err := planner.Plan(); err != nil {
					planFail(err)
				}
			}
			state.Remove(c.cancel)
			if mon != nil {
				mon.Remove(c.cancel)
			}
			ci.cancelled = true
			touched = append(touched, c.cancel)
			cancelledN++
			d.obs.cancelled.Inc()
			return reply{}
		}
	}

	// Commands already queued behind the one just received are handled
	// in the same batch, under ONE publish: the snapshot rebuild is the
	// per-command cost ceiling, so amortizing it over a burst is what
	// lets ingest scale. Replies are sent only after that publish, so
	// the read-your-writes guarantee (an acked write is visible in the
	// next Snapshot) is exactly as strong as with per-command
	// publication. The batch is bounded so a firehose cannot starve
	// publication or shutdown.
	const maxBatch = 256
	type handled struct {
		c command
		r reply
	}
	batch := make([]handled, 0, maxBatch)

	publish()
	for {
		select {
		case <-d.quit:
			publish()
			// Perpetual drain: fail any command that raced past the
			// quit check so its sender never blocks. One goroutine,
			// parked on an empty channel for the process lifetime.
			go func() {
				for c := range d.cmds {
					if c.reply != nil {
						c.reply <- reply{err: ErrClosed}
					}
				}
			}()
			return
		case c := <-d.cmds:
			batch = append(batch[:0], handled{c, handle(c)})
		drain:
			for len(batch) < maxBatch {
				select {
				case c2 := <-d.cmds:
					batch = append(batch, handled{c2, handle(c2)})
				default:
					break drain
				}
			}
			publish()
			for i := range batch {
				if batch[i].c.reply != nil {
					batch[i].c.reply <- batch[i].r
				}
			}
		}
	}
}
