package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"coflow/internal/bvn"
	"coflow/internal/check"
	"coflow/internal/coflowmodel"
	"coflow/internal/daemon"
	"coflow/internal/obs"
	"coflow/internal/online"
	"coflow/internal/scenario"
	"coflow/internal/shard"
)

// replayWorkload drives the serving core with manual time: a scripted
// stream of register / cancel / port events is applied slot by slot to
// an in-process shard.Cluster, and one operation is one Cluster.Tick.
// A round replays a whole script into a fresh cluster until it drains.
// A run draws a few scripts from its seed and replays them in turn
// until the time is up: the backlog, and with it the cost of a tick,
// differs from script to script, and one script is too few for the
// median to be steady from seed to seed.
type replayWorkload struct {
	label   string
	scen    scenario.Config // Seed is set per run
	shards  int
	plan    bool
	scripts int // distinct scripts per run, replayed in turn
	warm    int // coflows in the warm-up script
}

const replayPorts = 64

var paretoShape = scenario.Shape{Kind: "pareto", MaxFlowSize: 60, MaxWidth: 8}

// replaySteady is the serving core under a standing backlog and no
// churn, four fabrics behind one cluster. The daemon's tick and its
// snapshot publication dominate and online.Step comes second; bvn and
// lp are idle, so a change to either must not move it.
func replaySteady() *replayWorkload {
	return &replayWorkload{
		label: "replay-steady", shards: 4, scripts: 4, warm: 300,
		scen: scenario.Config{
			Name: "replay-steady", Ports: replayPorts, Coflows: 2000,
			Arrival: scenario.Arrival{Kind: "poisson", Mean: 1}, Shape: paretoShape,
		},
	}
}

// replayChurnPlan uses the same layers differently: cancels,
// re-registrations, probes and two port outages write to online.State
// beside Step, and the live BvN plan runs every slot through the
// incremental Decomposer.Update (cold after each registration) on one
// fabric instead of four. The planner is most of the tick, so a BvN
// gain for cold Decompose that costs Update shows here.
func replayChurnPlan() *replayWorkload {
	const coflows, mean = 700, 3
	horizon := int64(coflows * mean)
	return &replayWorkload{
		label: "replay-churn-plan", shards: 1, plan: true, scripts: 4, warm: 100,
		scen: scenario.Config{
			Name: "replay-churn-plan", Ports: replayPorts, Coflows: coflows,
			Arrival: scenario.Arrival{Kind: "poisson", Mean: mean}, Shape: paretoShape,
			Churn: scenario.Churn{CancelProb: 0.3, MeanDelay: 6, ReRegister: true, ProbeEvery: 10},
			Failures: []scenario.FailureWindow{
				{Port: 3, At: horizon / 5, RecoverAt: horizon/5 + 40},
				{Port: 17, At: horizon / 2, RecoverAt: horizon/2 + 60},
			},
		},
	}
}

func (w *replayWorkload) name() string { return w.label }

// script generates the run's event stream with coflows coflows, and
// gives each key a weight from 1 to 8 (the generator leaves them at 1):
// whole numbers, so Σ wC sums exactly in any order.
func (w *replayWorkload) script(seed int64, coflows int) (*scenario.Script, error) {
	cfg := w.scen
	cfg.Seed, cfg.Coflows = seed, coflows
	if coflows != w.scen.Coflows {
		cfg.Failures = nil // the short warm-up script ends before the outages begin
	}
	sc, err := scenario.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.label, err)
	}
	rng := rand.New(rand.NewSource(seed))
	weights := map[int]float64{}
	for i := range sc.Events {
		ev := &sc.Events[i]
		if ev.Op != scenario.OpRegister {
			continue
		}
		if _, ok := weights[ev.Key]; !ok {
			weights[ev.Key] = float64(1 + rng.Intn(8))
		}
		ev.Weight = weights[ev.Key]
	}
	return sc, nil
}

// cluster starts a fresh cluster for one round. Manual time (Tick 0)
// and an uncached aggregate keep a round deterministic; selfCheck
// switches the daemon's own invariant monitor on for every slot.
func (w *replayWorkload) cluster(selfCheck bool) (*shard.Cluster, error) {
	return shard.New(shard.Config{
		Shards:   w.shards,
		AggEvery: -1,
		Fabric: daemon.Config{
			Ports: replayPorts, Policy: online.SEBF, Plan: w.plan,
			SelfCheck: selfCheck, SelfCheckEvery: 1,
		},
	})
}

// fabEvent is one scripted event as one fabric saw it: the slot it was
// applied at and the cluster-assigned coflow ID. The shadow passes
// replay these against the bare layers with the cluster's routing.
type fabEvent struct {
	slot   int64
	op     scenario.Op
	id     int
	weight float64
	flows  []coflowmodel.Flow
	port   int
	span   int // the shard.register / shard.cancel span
}

// roundLog is what a traced round keeps for the shadow passes.
type roundLog struct {
	events    [][]fabEvent // per fabric
	tickSpans [][]int      // per fabric, per slot: the daemon.tick span
	tickSecs  float64      // Σ per-fabric tick time of this round
}

// roundResult is one round's ledger, read off the drained cluster.
type roundResult struct {
	slots          int64
	wc, lb         float64 // Σ wC and Σ w(r+ρ) over completed coflows
	response, load float64 // Σ w(C−r) and Σ wρ over the same
	log            *roundLog
}

// round replays sc into a fresh cluster until every coflow is terminal,
// adding the replay loop's time and one sample per tick to sec; starting
// the cluster and reading its ledger stay outside. A round with a probe
// runs under the daemon's self-check, must end with no violation, and
// hands the drained cluster to the probe before closing it.
func (w *replayWorkload) round(sc *scenario.Script, tr *tracer, sec *section, o *outcome, probe func(*shard.Cluster)) (res *roundResult, err error) {
	c, err := w.cluster(probe != nil)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}()
	res = &roundResult{}
	if tr != nil {
		res.log = &roundLog{events: make([][]fabEvent, w.shards), tickSpans: make([][]int, w.shards)}
	}
	record := func(fabric int, ev fabEvent) {
		if res.log != nil {
			res.log.events[fabric] = append(res.log.events[fabric], ev)
		}
	}
	ids := map[int]int{}                     // script key → current cluster ID
	bounds := make([][2]time.Time, w.shards) // traced run: each fabric's tick start and end
	horizon := sc.Horizon()
	next := 0
	sec.begin()
	for slot := int64(0); ; slot++ {
		for ; next < len(sc.Events) && sc.Events[next].Slot <= slot; next++ {
			ev := sc.Events[next]
			switch ev.Op {
			case scenario.OpRegister:
				var id, fabric int
				var err error
				span := tr.time("shard.register", -1, slot, func() {
					id, _, fabric, err = c.Register(&coflowmodel.Registration{Weight: ev.Weight, Flows: ev.Flows})
				})
				if err != nil {
					return nil, fmt.Errorf("%s: register key %d: %w", w.label, ev.Key, err)
				}
				ids[ev.Key] = id
				record(fabric, fabEvent{slot: slot, op: ev.Op, id: id, weight: ev.Weight, flows: ev.Flows, span: span})
			case scenario.OpCancel:
				var fabric int
				var err error
				span := tr.time("shard.cancel", -1, slot, func() { fabric, err = c.CancelFabric(ids[ev.Key]) })
				switch {
				case err == nil:
					record(fabric, fabEvent{slot: slot, op: ev.Op, id: ids[ev.Key], span: span})
				case !errors.Is(err, daemon.ErrTerminalCoflow):
					// Losing the race against completion is the script's
					// point; anything else is a failed operation.
					o.fail("%s: cancel key %d: %v", w.label, ev.Key, err)
				}
			case scenario.OpFail, scenario.OpRecover:
				op := c.FailPort
				if ev.Op == scenario.OpRecover {
					op = c.RecoverPort
				}
				if err := op(-1, ev.Port); err != nil {
					return nil, fmt.Errorf("%s: %s port %d: %w", w.label, ev.Op, ev.Port, err)
				}
				for f := 0; f < w.shards; f++ {
					record(f, fabEvent{slot: slot, op: ev.Op, port: ev.Port})
				}
			}
		}

		t0 := time.Now()
		if tr == nil {
			err = c.Tick()
		} else {
			// Cluster.Tick is this loop; unrolled so each fabric's tick
			// is a span of its own under the cluster's.
			for f := range bounds {
				bounds[f][0] = time.Now()
				if err == nil {
					err = c.Fabric(f).Tick()
				}
				bounds[f][1] = time.Now()
			}
			parent := tr.add("shard.tick", -1, slot, t0, bounds[w.shards-1][1])
			for f, b := range bounds {
				res.log.tickSpans[f] = append(res.log.tickSpans[f], tr.add("daemon.tick", parent, slot, b[0], b[1]))
				res.log.tickSecs += b[1].Sub(b[0]).Seconds()
			}
		}
		sec.opSecs = append(sec.opSecs, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("%s: tick %d: %w", w.label, slot, err)
		}
		res.slots = slot + 1

		if next == len(sc.Events) && activeCoflows(c) == 0 {
			break
		}
		if slot > horizon {
			return nil, fmt.Errorf("%s: %d coflows still live past the horizon %d", w.label, activeCoflows(c), horizon)
		}
	}

	sec.end()

	m := c.Metrics()
	var violations int64
	for f, sm := range m.PerShard {
		violations += sm.Metrics.SelfCheckViolations
		c.Fabric(f).Snapshot().Coflows.Range(func(_ int, cs *daemon.CoflowStatus) bool {
			if cs.State == "completed" {
				res.wc += cs.Weight * float64(cs.Completed)
				res.lb += cs.Weight * float64(cs.Release+cs.Load)
				res.response += cs.Weight * float64(cs.Completed-cs.Release)
				res.load += cs.Weight * float64(cs.Load)
			}
			return true
		})
	}
	o.attempt(int(res.slots) + len(sc.Events))
	o.check(res.wc == m.TotalWeighted, "%s: coflow table sums to Σ wC %v, the cluster reports %v", w.label, res.wc, m.TotalWeighted)
	o.check(m.Registered == m.Completed+m.Cancelled && m.Active == 0,
		"%s: %d registered ≠ %d completed + %d cancelled (%d still active at drain)",
		w.label, m.Registered, m.Completed, m.Cancelled, m.Active)
	if probe != nil {
		o.check(violations == 0, "%s: the daemon's self-check flagged %d violations", w.label, violations)
		probe(c)
	}
	return res, nil
}

// activeCoflows sums the live coflows over every fabric's snapshot.
func activeCoflows(c *shard.Cluster) int {
	n := 0
	for f := 0; f < c.Shards(); f++ {
		n += c.Fabric(f).Snapshot().Metrics.ActiveCoflows
	}
	return n
}

// measure replays whole rounds, one script after the other, until the
// time is up, and returns each script's ledger plus the last traced
// round's; a script replayed again must end on the same Σ wC. With a
// tracer every script is replayed twice in a row, untraced then traced,
// so the two sections see the same machine and the same work. The first
// traced round is the probed one: only it pays for the daemon's
// self-check, so that the check does not pass for tracing overhead on
// every tick.
func (w *replayWorkload) measure(scripts []*scenario.Script, seconds float64, tr *tracer, o *outcome) (plain, traced *section, ledgers []*roundResult, last *roundResult, err error) {
	plain, traced = &section{}, &section{}
	ledgers = make([]*roundResult, len(scripts))
	per := 1 // rounds per script visit
	if tr != nil {
		per = 2
	}
	start := time.Now()
	for r := 0; time.Since(start).Seconds() < seconds || r%per != 0; r++ {
		k := (r / per) % len(scripts)
		sec, roundTr := plain, (*tracer)(nil)
		if r%per == 1 {
			sec, roundTr = traced, tr
		}
		var probe func(*shard.Cluster)
		if r == 1 && roundTr != nil {
			probe = func(c *shard.Cluster) { probeCluster(c, o) }
		}
		res, err := w.round(scripts[k], roundTr, sec, o, probe)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if ledgers[k] == nil {
			ledgers[k] = res
		}
		o.check(res.wc == ledgers[k].wc && res.slots == ledgers[k].slots,
			"%s: script %d ended on Σ wC %v after %d slots, earlier on %v after %d", w.label, k, res.wc, res.slots, ledgers[k].wc, ledgers[k].slots)
		if roundTr != nil {
			last = res
		}
	}
	return plain, traced, ledgers, last, nil
}

func (w *replayWorkload) run(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	scripts, _, setupS, err := timeSetup(rc, func() ([]*scenario.Script, func(), error) {
		scripts := make([]*scenario.Script, w.scripts)
		for k := range scripts {
			sc, err := w.script(rc.seed*1_000_003+int64(k), w.scen.Coflows)
			if err != nil {
				return nil, nil, err
			}
			scripts[k] = sc
		}
		warm, err := w.script(rc.seed, w.warm)
		if err != nil {
			return nil, nil, err
		}
		_, err = w.round(warm, nil, &section{}, newOutcome(), nil)
		return scripts, nil, err
	})
	if err != nil {
		return nil, err
	}
	plain, traced, ledgers, last, err := w.measure(scripts, rc.seconds, rc.tr, o)
	if err != nil {
		return nil, err
	}
	// Scripts the time did not reach are replayed untimed, so the ratio
	// covers the same inputs however fast the machine is.
	var total roundResult
	for k, res := range ledgers {
		if res == nil {
			if res, err = w.round(scripts[k], nil, &section{}, o, nil); err != nil {
				return nil, err
			}
		}
		total.wc += res.wc
		total.lb += res.lb
		total.response += res.response
		total.load += res.load
	}
	if rc.tr == nil {
		o.setEndToEnd(setupS, plain, total.wc/total.lb)
		return o, nil
	}
	o.setHarness(plain, traced)
	o.values["daemon.alloc_kb_per_tick"] = float64(plain.alloc) / 1024 / float64(len(plain.opSecs)*w.shards)
	o.values["online.response_over_load"] = total.response / total.load
	return o, w.shadow(last, rc.tr, o)
}

// sink keeps the probes' results alive so the calls are not optimised
// away.
var sink any

// probeCluster times the read-side calls too short to span one by one,
// on a cluster that holds a populated coflow table, and reads the
// cluster's own counters.
func probeCluster(c *shard.Cluster, o *outcome) {
	ids := int(c.Metrics().Registered)
	o.values["daemon.snapshot_read_ns"] = perCallNs(100_000, func(int) { sink = c.Fabric(0).Snapshot() })
	o.values["shard.owner_ns"] = perCallNs(100_000, func(i int) { _, sink, _ = c.Owner(1 + i%ids) })
	o.values["shard.metrics_us"] = perCallNs(2_000, func(int) { sink = c.Metrics() }) / 1e3
	ring := shard.NewRing(c.Shards(), 0)
	o.values["shard.route_ns"] = perCallNs(1_000_000, func(i int) { sink = ring.Route(uint64(i)) })
	m := c.Metrics()
	o.values["shard.fallback_scans"] = float64(m.FallbackScans)
	o.values["daemon.ticks_skipped"] = float64(m.TicksSkipped)
	for _, sm := range m.PerShard {
		o.values["daemon.queue_depth_max"] = max(o.values["daemon.queue_depth_max"], float64(sm.Metrics.QueueDepth))
	}
}

// shadow replays the last traced round's events, fabric by fabric with
// the routing the cluster chose, against the layers under the daemon:
// a bare online.State (with the planner and the invariant monitor the
// daemon would run beside it), and a bare daemon for the command
// round-trips. The bare scheduler must end on the cluster's Σ wC.
func (w *replayWorkload) shadow(res *roundResult, tr *tracer, o *outcome) error {
	reg := obs.NewRegistry()
	stepObs := online.NewObs(reg)
	planObs := bvn.NewObs(reg)
	var wc float64
	var served int64
	for f, events := range res.log.events {
		state := online.NewState(replayPorts)
		state.SetObs(stepObs)
		mon := check.NewMonitor(replayPorts)
		var planner *online.Planner
		if w.plan {
			planner = online.NewPlanner(replayPorts)
			planner.SetObs(planObs)
		}
		replan := func(parent int, slot int64) error {
			var err error
			tr.time("bvn.plan", parent, slot, func() { _, err = planner.Plan() })
			return err
		}
		weights := map[int]float64{}
		next := 0
		for slot := int64(0); slot < res.slots; slot++ {
			for ; next < len(events) && events[next].slot == slot; next++ {
				ev := events[next]
				switch ev.op {
				case scenario.OpRegister:
					var err error
					tr.time("online.add", ev.span, slot, func() { _, err = state.Add(ev.id, ev.weight, slot, ev.flows) })
					if err != nil {
						return fmt.Errorf("%s: shadow add %d: %w", w.label, ev.id, err)
					}
					weights[ev.id] = ev.weight
					mon.Add(ev.id, slot, ev.flows)
					if planner != nil {
						if err := planner.Add(ev.flows); err != nil {
							return fmt.Errorf("%s: shadow planner add: %w", w.label, err)
						}
					}
				case scenario.OpCancel:
					if planner != nil {
						if err := planner.Shed(state.Demand(ev.id)); err != nil {
							return fmt.Errorf("%s: shadow planner shed: %w", w.label, err)
						}
						if err := replan(ev.span, slot); err != nil {
							return fmt.Errorf("%s: shadow plan after shed: %w", w.label, err)
						}
					}
					tr.time("online.remove", ev.span, slot, func() { state.Remove(ev.id) })
					mon.Remove(ev.id)
				case scenario.OpFail:
					if err := state.FailPort(ev.port); err != nil {
						return err
					}
					mon.FailPort(ev.port)
				case scenario.OpRecover:
					if err := state.RecoverPort(ev.port); err != nil {
						return err
					}
					mon.RecoverPort(ev.port)
				}
			}
			parent := res.log.tickSpans[f][slot]
			var step online.StepResult
			tr.time("online.step", parent, slot, func() { step = state.Step(slot+1, online.SEBF) })
			served += int64(len(step.Served))
			for _, id := range step.Completed {
				wc += weights[id] * float64(slot+1)
			}
			var vs []check.Violation
			tr.time("check.observe", parent, slot, func() { vs = mon.Observe(step, true) })
			o.check(len(vs) == 0, "%s: shadow slot %d on fabric %d: %s", w.label, slot, f, first(vs))
			if planner != nil {
				if err := planner.Observe(step.Served); err != nil {
					return fmt.Errorf("%s: shadow planner observe: %w", w.label, err)
				}
				if err := replan(parent, slot); err != nil {
					return fmt.Errorf("%s: shadow plan at slot %d: %w", w.label, slot, err)
				}
			}
		}
		o.check(state.Len() == 0, "%s: bare scheduler of fabric %d still holds %d coflows at drain", w.label, f, state.Len())
	}
	o.check(wc == res.wc, "%s: bare online.State ends on Σ wC %v, the cluster on %v", w.label, wc, res.wc)

	if err := w.shadowDaemon(res.log.events[0], res.slots, tr); err != nil {
		return err
	}

	o.values["online.step_us_p50"] = medianOf(tr, "online.step", 1e6)
	o.values["online.step_us_p99"] = p99Of(tr, "online.step", 1e6)
	o.values["online.add_us_p50"] = medianOf(tr, "online.add", 1e6)
	o.values["online.remove_us_p50"] = medianOf(tr, "online.remove", 1e6)
	o.values["online.served_per_slot"] = float64(served) / float64(res.slots*int64(w.shards))
	o.values["online.warm_hit_rate"] = stepObs.WarmStartHitRate()
	o.values["check.observe_us_p50"] = medianOf(tr, "check.observe", 1e6)
	o.values["bvn.update_us_p50"] = medianOf(tr, "bvn.plan", 1e6)
	o.values["bvn.update_us_p99"] = p99Of(tr, "bvn.plan", 1e6)
	o.values["bvn.update_fallbacks"] = float64(planObs.UpdateFallbacks.Value())
	o.values["bvn.term_reuse_rate"] = planObs.TermReuseHitRate()
	o.values["matching.warm_hit_rate"] = planObs.Matcher.WarmStartHitRate()
	o.values["daemon.tick_us_p50"] = medianOf(tr, "daemon.tick", 1e6)
	o.values["daemon.tick_us_p99"] = p99Of(tr, "daemon.tick", 1e6)
	o.values["daemon.tick_overhead_share"] = 1 - (tr.total("online.step")+tr.total("bvn.plan"))/res.log.tickSecs
	o.values["daemon.register_us_p50"] = medianOf(tr, "daemon.register", 1e6)
	o.values["daemon.register_us_p99"] = p99Of(tr, "daemon.register", 1e6)
	o.values["daemon.cancel_us_p50"] = medianOf(tr, "daemon.cancel", 1e6)
	o.values["shard.register_us_p50"] = medianOf(tr, "shard.register", 1e6)
	return nil
}

// shadowDaemon replays one fabric's events against a bare daemon, the
// layer Cluster.Register and Cluster.Cancel route into, timing the
// command round-trip through its queue and event loop.
func (w *replayWorkload) shadowDaemon(events []fabEvent, slots int64, tr *tracer) (err error) {
	d, err := daemon.New(daemon.Config{Ports: replayPorts, Policy: online.SEBF, Plan: w.plan})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}()
	next := 0
	for slot := int64(0); slot < slots; slot++ {
		for ; next < len(events) && events[next].slot == slot; next++ {
			ev := events[next]
			var err error
			switch ev.op {
			case scenario.OpRegister:
				tr.time("daemon.register", ev.span, slot, func() {
					_, err = d.RegisterWithID(ev.id, &coflowmodel.Registration{Weight: ev.weight, Flows: ev.flows})
				})
			case scenario.OpCancel:
				tr.time("daemon.cancel", ev.span, slot, func() { err = d.Cancel(ev.id) })
				if errors.Is(err, daemon.ErrTerminalCoflow) {
					err = nil
				}
			case scenario.OpFail:
				err = d.FailPort(ev.port)
			case scenario.OpRecover:
				err = d.RecoverPort(ev.port)
			}
			if err != nil {
				return fmt.Errorf("%s: shadow daemon %s: %w", w.label, ev.op, err)
			}
		}
		if err := d.Tick(); err != nil {
			return err
		}
	}
	return nil
}
