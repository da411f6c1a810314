package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// A workload is one named set of inputs and the operation run on them.
// run measures for about rc.seconds and returns its counts and values;
// the error is for a harness or program failure that makes the numbers
// meaningless, as opposed to a failed operation, which is counted.
type workload interface {
	name() string
	run(rc *runCtx) (*outcome, error)
}

// runCtx is one invocation's parameters. tr is nil with tracing off.
type runCtx struct {
	seed    int64
	seconds float64
	tr      *tracer
}

// Set-up is repeated, and setup_s is the median, so that one slow start
// does not decide the reported time: at least minSetups times, then on
// until setupBudget seconds are spent or maxSetups is reached, so a
// cheap set-up, whose time is the easiest to disturb, is sampled most.
// A traced run reports no set-up time and sets up once.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2.5
)

// section is a timed stretch of operations, possibly in several parts.
type section struct {
	opSecs []float64 // per-operation wall, seconds
	wall   float64   // the stretch, seconds, including work between operations
	alloc  uint64    // bytes allocated during the stretch

	start time.Time
	mem   runtime.MemStats
}

// begin opens a part of the stretch; end closes it and adds its wall
// time and allocation to the section's.
func (s *section) begin() {
	runtime.ReadMemStats(&s.mem)
	s.alloc -= s.mem.TotalAlloc // end adds the later reading; the difference accumulates
	s.start = time.Now()
}

func (s *section) end() {
	s.wall += time.Since(s.start).Seconds()
	runtime.ReadMemStats(&s.mem)
	s.alloc += s.mem.TotalAlloc
}

// timeSetup runs setup repeatedly (once when traced), releasing every
// state but the last through the teardown it returned, and reports the
// median set-up time in seconds. The caller owns the last state and
// its teardown.
func timeSetup[T any](rc *runCtx, setup func() (T, func(), error)) (state T, teardown func(), seconds float64, err error) {
	var times []float64
	var spent float64
	for {
		if teardown != nil {
			teardown()
		}
		start := time.Now()
		state, teardown, err = setup()
		if err != nil {
			return state, nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		spent += times[len(times)-1]
		if n := len(times); rc.tr != nil || n >= maxSetups || (n >= minSetups && spent >= setupBudget) {
			return state, teardown, median(times), nil
		}
	}
}

// setEndToEnd fills the five end-to-end metrics from an untraced
// section.
func (o *outcome) setEndToEnd(setupS float64, sec *section, wctOverLB float64) {
	ops := float64(len(sec.opSecs))
	o.values["setup_s"] = setupS
	o.values["op_ms"] = median(sec.opSecs) * 1e3
	o.values["wct_over_lb"] = wctOverLB
	o.values["alloc_kb_per_op"] = float64(sec.alloc) / 1024 / ops
	o.values["peak_rss_mb"] = peakRSSMB()
}

// setHarness fills the bench.* metrics of a traced run: the traced
// operations' sample size, median and tail, the throughput over both
// kinds of operation (work between operations included), and what
// tracing cost against the untraced operations interleaved with them.
func (o *outcome) setHarness(plain, traced *section) {
	t, pct := tail(traced.opSecs)
	o.values["bench.ops"] = float64(len(traced.opSecs))
	o.values["bench.op_ms"] = median(traced.opSecs) * 1e3
	o.values["bench.ops_per_s"] = float64(len(plain.opSecs)+len(traced.opSecs)) / (plain.wall + traced.wall)
	o.values["bench.op_tail_ms"] = t * 1e3
	o.values["bench.op_tail_pct"] = pct
	if base := median(plain.opSecs); base > 0 {
		o.values["bench.trace_overhead_share"] = median(traced.opSecs)/base - 1
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB; where
// /proc is missing it falls back to the memory the Go runtime obtained.
func peakRSSMB() float64 {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			rest, ok := strings.CutPrefix(line, "VmHWM:")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 2 && fields[1] == "kB" {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// medianOf is median over the named spans, scaled to unit.
func medianOf(tr *tracer, name string, unit float64) float64 {
	return median(tr.scaled(name, unit))
}

// p99Of is p99 over the named spans, scaled to unit.
func p99Of(tr *tracer, name string, unit float64) float64 {
	return p99(tr.scaled(name, unit))
}

// perCallNs times n calls of f in one stretch and returns nanoseconds
// per call: for calls too short to time one by one.
func perCallNs(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// workloads returns the five workloads at their benchmark sizes, in
// the order the suite runs them. The names are what BENCHMARK.json
// declares and what later issues cite.
func workloads() []workload {
	return []workload{batchLP(), batchGreedy(), replaySteady(), replayChurnPlan(), serveHTTP()}
}

// findWorkload returns the workload called name.
func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.name() == name {
			return w, nil
		}
		names = append(names, w.name())
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
