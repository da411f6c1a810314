package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef declares one metric the harness may emit. BENCHMARK.json
// carries the same declarations for the driver; TestManifestMatches
// keeps the two from drifting apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what a user of the system sees, reported on every
// workload with tracing off. An "op" is the workload's unit of service:
// one core.Schedule call on batch-*, one Cluster.Tick on replay-*, one
// HTTP request on serve-http. The timing bounds are as wide as the
// contract allows because the same seed drifts by a tenth between runs
// on a shared two-core box (see README.md, "Baseline").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.25},
	{"wct_over_lb", "ratio", "lower", 0.05},
	{"alloc_kb_per_op", "KB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer is reported by the traced run; the prefix is the module
// the number belongs to. A layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"trace.generate_ms", "ms", "lower", 0},
	{"coflowmodel.parse_bulk_us", "us", "lower", 0},

	{"lpmodel.solve_ms", "ms", "lower", 0},
	{"lpmodel.build_extract_ms", "ms", "lower", 0},
	{"lpmodel.vars", "count", "lower", 0},
	{"lpmodel.rows", "count", "lower", 0},
	{"lpmodel.maxloads_ms", "ms", "lower", 0},

	{"lp.presolve_ms", "ms", "lower", 0},
	{"lp.solve_ms", "ms", "lower", 0},
	{"lp.pivots", "count", "lower", 0},
	{"lp.presolve_removed", "count", "higher", 0},
	{"lp.alloc_mb", "MB", "lower", 0},
	{"lp.mallocs", "count", "lower", 0},
	{"lp.sparse_fallbacks", "count", "lower", 0},

	{"core.group_ms", "ms", "lower", 0},
	{"core.stages", "count", "lower", 0},
	{"core.execute_ms", "ms", "lower", 0},

	{"switchsim.execute_ms", "ms", "lower", 0},
	{"switchsim.self_ms", "ms", "lower", 0},
	{"switchsim.matchings", "count", "lower", 0},

	{"bvn.decompose_ms", "ms", "lower", 0},
	{"bvn.terms", "count", "lower", 0},
	{"bvn.update_us_p50", "us", "lower", 0},
	{"bvn.update_us_p99", "us", "lower", 0},
	{"bvn.update_fallbacks", "count", "lower", 0},
	{"bvn.term_reuse_rate", "ratio", "higher", 0},

	{"matching.warm_hit_rate", "ratio", "higher", 0},

	{"online.step_us_p50", "us", "lower", 0},
	{"online.step_us_p99", "us", "lower", 0},
	{"online.add_us_p50", "us", "lower", 0},
	{"online.remove_us_p50", "us", "lower", 0},
	{"online.served_per_slot", "count", "higher", 0},
	{"online.warm_hit_rate", "ratio", "higher", 0},
	{"online.response_over_load", "ratio", "lower", 0},

	{"check.observe_us_p50", "us", "lower", 0},

	{"daemon.tick_us_p50", "us", "lower", 0},
	{"daemon.tick_us_p99", "us", "lower", 0},
	{"daemon.tick_overhead_share", "ratio", "lower", 0},
	{"daemon.register_us_p50", "us", "lower", 0},
	{"daemon.register_us_p99", "us", "lower", 0},
	{"daemon.cancel_us_p50", "us", "lower", 0},
	{"daemon.snapshot_read_ns", "ns", "lower", 0},
	{"daemon.alloc_kb_per_tick", "KB", "lower", 0},
	{"daemon.ticks_skipped", "count", "lower", 0},
	{"daemon.queue_depth_max", "count", "lower", 0},

	{"shard.route_ns", "ns", "lower", 0},
	{"shard.register_us_p50", "us", "lower", 0},
	{"shard.owner_ns", "ns", "lower", 0},
	{"shard.metrics_us", "us", "lower", 0},
	{"shard.fallback_scans", "count", "lower", 0},

	{"http.register_ms_p50", "ms", "lower", 0},
	{"http.register_ms_p99", "ms", "lower", 0},
	{"http.get_ms_p50", "ms", "lower", 0},
	{"http.get_ms_p99", "ms", "lower", 0},
	{"http.cancel_ms_p50", "ms", "lower", 0},
	{"http.metrics_ms_p50", "ms", "lower", 0},
	{"http.handler_us_p50", "us", "lower", 0},
	{"http.status_4xx", "count", "lower", 0},
	{"http.status_5xx", "count", "lower", 0},
	{"http.conflicts_409", "count", "lower", 0},

	{"bench.ops", "count", "higher", 0},
	{"bench.op_ms", "ms", "lower", 0},
	{"bench.ops_per_s", "1/s", "higher", 0},
	{"bench.op_tail_ms", "ms", "lower", 0},
	{"bench.op_tail_pct", "%", "higher", 0},
	{"bench.trace_overhead_share", "ratio", "lower", 0},
}

// metricValue is one emitted number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the contract's result object: the last line a run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload hands back: operation counts, the reasons
// behind any failure, and raw metric values keyed by declared name.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	values    map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// attempt counts n operations or checks as tried.
func (o *outcome) attempt(n int) { o.attempted += n }

// fail counts one failed operation or check and keeps its reason.
func (o *outcome) fail(format string, args ...any) { o.failN(1, format, args...) }

// failN counts n failed operations under one reason (only the first
// few reasons are kept; a broken run would otherwise drown the cause).
func (o *outcome) failN(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	if len(o.failures) < 16 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one output check and fails it unless ok.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

// build turns the outcome into the contract's report over defs: every
// declared metric is present (0 when the workload did not set it), and
// an undeclared or non-finite value is itself a failure.
func (o *outcome) build(defs []metricDef) *report {
	r := &report{Attempted: o.attempted, Metrics: make(map[string]metricValue, len(defs))}
	declared := make(map[string]bool, len(defs))
	for _, d := range defs {
		declared[d.Name] = true
		v := o.values[d.Name]
		if !finite(v) {
			o.fail("metric %s is not finite", d.Name)
			v = 0
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range o.values {
		if !declared[name] {
			o.fail("metric %s is emitted but not declared", name)
		}
	}
	r.Failed = o.failed
	r.Correct = o.failed == 0
	return r
}

// print writes the metrics as an aligned table, then the report as one
// JSON line: the contract reads the last line of standard output.
func (r *report) print(w io.Writer, defs []metricDef) error {
	for _, d := range defs {
		if _, err := fmt.Fprintf(w, "%-30s %16.6g %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit); err != nil {
			return err
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
