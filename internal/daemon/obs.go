package daemon

import (
	"coflow/internal/bvn"
	"coflow/internal/obs"
	"coflow/internal/online"
)

// daemonObs bundles the daemon's metrics registry: the slot
// pipeline's stage instrumentation (coflow_step_*, from online.NewObs)
// plus daemon-level counters and gauges (coflowd_*). The registry
// backs both GET /metrics (Prometheus text) and the stage-latency /
// warm-start fields of the enriched GET /v1/metrics.
//
// Only the event-loop goroutine updates these (the metrics themselves
// are atomic, so scrapes never block the loop and vice versa).
type daemonObs struct {
	reg  *obs.Registry
	step online.Obs
	// plan instruments the optional BvN planner (coflow_bvn_*):
	// decompositions and the term-buffer pool hit rate. All zeros while
	// Config.Plan is off.
	plan bvn.Obs

	ticks       *obs.Counter
	tickSeconds *obs.Histogram
	// publishSeconds times publish(): what a command batch costs beyond
	// its handlers. tickSeconds covers only state.Step, so without this
	// a slow snapshot rebuild is invisible in /v1/metrics.
	publishSeconds *obs.Histogram

	slot         *obs.Gauge
	active       *obs.Gauge
	queueDepth   *obs.Gauge
	degraded     *obs.Gauge
	ticksSkipped *obs.Gauge
	portsFailed  *obs.Gauge

	registered    *obs.Counter
	completed     *obs.Counter
	cancelled     *obs.Counter
	totalWeighted *obs.Gauge

	selfCheckViolations *obs.Counter

	waitSlots    *obs.Histogram
	serviceSlots *obs.Histogram
}

// slotBuckets is the bucket ladder for per-coflow wait/service times
// measured in slots: powers of two up to 64Ki slots.
var slotBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384, 65536}

func newDaemonObs() *daemonObs {
	r := obs.NewRegistry()
	return &daemonObs{
		reg:  r,
		step: online.NewObs(r),
		plan: bvn.NewObs(r),

		ticks:          r.Counter("coflowd_ticks_total", "scheduler ticks processed"),
		tickSeconds:    r.Histogram("coflowd_tick_seconds", "latency of one scheduling tick", obs.LatencyBuckets),
		publishSeconds: r.Histogram("coflowd_publish_seconds", "latency of publishing one snapshot (once per command batch)", obs.LatencyBuckets),

		slot:         r.Gauge("coflowd_slot", "current virtual slot"),
		active:       r.Gauge("coflowd_active_coflows", "live registered-but-unfinished coflows"),
		queueDepth:   r.Gauge("coflowd_command_queue_depth", "pending commands in the event-loop queue"),
		degraded:     r.Gauge("coflowd_degraded", "1 while the deadline guard has degraded the policy to FIFO"),
		ticksSkipped: r.Gauge("coflowd_ticks_skipped_total", "ticker ticks dropped because the loop was busy"),
		portsFailed:  r.Gauge("coflowd_ports_failed", "switch ports currently offline (their demand is parked)"),

		registered:    r.Counter("coflowd_coflows_registered_total", "coflows registered"),
		completed:     r.Counter("coflowd_coflows_completed_total", "coflows completed"),
		cancelled:     r.Counter("coflowd_coflows_cancelled_total", "coflows cancelled"),
		totalWeighted: r.Gauge("coflowd_total_weighted_completion", "running objective: sum of weight times completion slot"),

		selfCheckViolations: r.Counter("coflowd_self_check_violations_total", "invariant violations flagged by the -selfcheck monitor"),

		waitSlots:    r.Histogram("coflowd_coflow_wait_slots", "completed-coflow queueing delay in slots (completion - release - load)", slotBuckets),
		serviceSlots: r.Histogram("coflowd_coflow_service_slots", "completed-coflow ideal service time in slots (the load rho)", slotBuckets),
	}
}

// StageLatency is the per-stage latency summary of the enriched
// /v1/metrics payload, in seconds.
type StageLatency struct {
	Step  obs.HistogramSnapshot `json:"step"`
	Sort  obs.HistogramSnapshot `json:"sort"`
	Match obs.HistogramSnapshot `json:"match"`
	// Publish is the snapshot publication that follows every command
	// batch; it is not part of Step.
	Publish obs.HistogramSnapshot `json:"publish"`
}

func (o *daemonObs) stageLatency() StageLatency {
	return StageLatency{
		Step:    o.step.StepSeconds.Snapshot(),
		Sort:    o.step.SortSeconds.Snapshot(),
		Match:   o.step.MatchSeconds.Snapshot(),
		Publish: o.publishSeconds.Snapshot(),
	}
}
