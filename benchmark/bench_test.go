package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"coflow/internal/scenario"
)

// toyWorkloads are the five workloads shrunk until a run takes a
// fraction of a second: same code paths, same names, tiny inputs.
func toyWorkloads() []workload {
	lp, greedy := batchLP(), batchGreedy()
	lp.ports, lp.coflows, lp.pool, lp.checked, lp.shadowed = 8, 10, 4, 2, 2
	greedy.ports, greedy.coflows, greedy.pool, greedy.checked, greedy.shadowed = 10, 14, 4, 2, 2

	steady, churn := replaySteady(), replayChurnPlan()
	steady.scen.Coflows, steady.warm = 60, 10
	churn.scen.Coflows, churn.warm = 40, 8
	churn.scen.Failures = []scenario.FailureWindow{{Port: 3, At: 20, RecoverAt: 35}, {Port: 17, At: 60, RecoverAt: 70}}

	serve := serveHTTP()
	serve.ports, serve.shards, serve.tick = 8, 2, time.Millisecond
	serve.iterations, serve.probeEvery, serve.warm, serve.shadowed = 8, 3, 2, 4
	return []workload{lp, greedy, steady, churn, serve}
}

const toySeconds = 0.12

// runToy runs w once and returns its report, failing the test on any
// harness error or failed operation.
func runToy(t *testing.T, w workload, seed int64, traced bool) *report {
	t.Helper()
	rc := &runCtx{seed: seed, seconds: toySeconds}
	defs := endToEnd
	if traced {
		rc.tr = newTracer()
		defs = perLayer
	}
	o, err := w.run(rc)
	if err != nil {
		t.Fatalf("%s: %v", w.name(), err)
	}
	r := o.build(defs)
	if !r.Correct || r.Attempted < 1 {
		t.Fatalf("%s: %d of %d failed: %v", w.name(), r.Failed, r.Attempted, o.failures)
	}
	if traced && len(rc.tr.spans) == 0 {
		t.Errorf("%s: traced run recorded no span", w.name())
	}
	return r
}

// TestManifestMatches holds BENCHMARK.json to the tables the harness
// emits from: same workloads, same metrics with the same units,
// directions and bounds, and the contract's limits on each field.
func TestManifestMatches(t *testing.T) {
	var mf manifest
	if err := readJSON(filepath.Join("..", manifestPath), &mf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range mf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, w := range workloads() {
		want = append(want, w.name())
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads = %v, harness has %v", names, want)
	}
	toDefs := func(ms []manifestMetric) []metricDef {
		var defs []metricDef
		for _, m := range ms {
			defs = append(defs, metricDef(m))
		}
		return defs
	}
	if got := toDefs(mf.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v\nharness has %v", got, endToEnd)
	}
	if got := toDefs(mf.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v\nharness has %v", got, perLayer)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) breaks the naming rules or repeats", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(mf.Paths) != 1 || mf.Paths[0] != "benchmark" || mf.RunSeconds < 1 || mf.RunSeconds > 60 || len(mf.Command) == 0 {
		t.Errorf("BENCHMARK.json: paths %v, run_seconds %d, command %v", mf.Paths, mf.RunSeconds, mf.Command)
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at toy size,
// untraced and traced: each declared metric comes out exactly once,
// finite, an end-to-end metric never 0; the same seed reproduces
// wct_over_lb and every seed-determined count exactly.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	for i, w := range toyWorkloads() {
		again := toyWorkloads()[i]
		t.Run(w.name(), func(t *testing.T) {
			e2e := runToy(t, w, 9, false)
			if len(e2e.Metrics) != len(endToEnd) {
				t.Errorf("untraced run emitted %d metrics, %d are declared", len(e2e.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				mv, ok := e2e.Metrics[d.Name]
				if !ok || mv.Unit != d.Unit || !finite(mv.Value) || mv.Value <= 0 {
					t.Errorf("%s = %+v (present %v): want a positive finite value in %s", d.Name, mv, ok, d.Unit)
				}
			}
			var printed bytes.Buffer
			if err := e2e.print(&printed, endToEnd); err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSpace(printed.Bytes()), []byte("\n"))
			var parsed report
			if err := json.Unmarshal(lines[len(lines)-1], &parsed); err != nil || !reflect.DeepEqual(&parsed, e2e) {
				t.Errorf("last printed line does not parse back to the report: %v", err)
			}

			layers := runToy(t, w, 9, true)
			if len(layers.Metrics) != len(perLayer) {
				t.Errorf("traced run emitted %d metrics, %d are declared", len(layers.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if mv, ok := layers.Metrics[d.Name]; !ok || mv.Unit != d.Unit || !finite(mv.Value) {
					t.Errorf("%s = %+v (present %v): want a finite value in %s", d.Name, mv, ok, d.Unit)
				}
			}
			if layers.Metrics["bench.ops"].Value < 1 {
				t.Error("traced run counted no traced operation")
			}

			if w.name() == "serve-http" {
				return // its slots follow the wall clock
			}
			e2eAgain, layersAgain := runToy(t, again, 9, false), runToy(t, again, 9, true)
			if a, b := e2e.Metrics["wct_over_lb"].Value, e2eAgain.Metrics["wct_over_lb"].Value; a != b {
				t.Errorf("wct_over_lb = %v, then %v on the same seed", a, b)
			}
			for _, name := range append([]string{"bvn.update_fallbacks", "online.served_per_slot", "online.response_over_load"}, exactCounts...) {
				if a, b := layers.Metrics[name].Value, layersAgain.Metrics[name].Value; a != b {
					t.Errorf("%s = %v, then %v on the same seed", name, a, b)
				}
			}
		})
	}
}

// TestLayersAreExercisedWhereClaimed pins the design of the workloads:
// the layer a workload exists to show is busy on it, and the layer it
// bypasses reads 0.
func TestLayersAreExercisedWhereClaimed(t *testing.T) {
	busy := map[string][]string{
		"batch-lp":          {"lpmodel.solve_ms", "lp.solve_ms", "lp.pivots", "bvn.decompose_ms", "switchsim.matchings", "trace.generate_ms"},
		"batch-greedy":      {"switchsim.execute_ms", "bvn.terms", "core.stages"},
		"replay-steady":     {"daemon.tick_us_p50", "online.step_us_p50", "shard.register_us_p50", "check.observe_us_p50", "online.served_per_slot"},
		"replay-churn-plan": {"bvn.update_us_p50", "online.remove_us_p50", "daemon.cancel_us_p50"},
		"serve-http":        {"http.register_ms_p50", "http.get_ms_p50", "http.cancel_ms_p50", "http.metrics_ms_p50", "http.handler_us_p50", "coflowmodel.parse_bulk_us"},
	}
	idle := map[string][]string{
		"batch-lp":          {"online.step_us_p50", "http.get_ms_p50"},
		"batch-greedy":      {"lpmodel.solve_ms", "lp.solve_ms", "lp.pivots"},
		"replay-steady":     {"bvn.update_us_p50", "bvn.terms", "lp.solve_ms", "http.get_ms_p50"},
		"replay-churn-plan": {"lp.solve_ms", "switchsim.execute_ms"},
		"serve-http":        {"lp.solve_ms", "bvn.update_us_p50", "http.status_5xx", "http.status_4xx"},
	}
	for _, w := range toyWorkloads() {
		r := runToy(t, w, 3, true)
		for _, name := range busy[w.name()] {
			if r.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want it exercised", w.name(), name, r.Metrics[name].Value)
			}
		}
		for _, name := range idle[w.name()] {
			if r.Metrics[name].Value != 0 {
				t.Errorf("%s: %s = %v, want 0", w.name(), name, r.Metrics[name].Value)
			}
		}
	}
}

// TestSeedNamesTheInputs: one seed, one input; another seed, another.
func TestSeedNamesTheInputs(t *testing.T) {
	lp := batchLP()
	a, err := lp.generate(9, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := lp.generate(9, 0)
	c, _ := lp.generate(10, 0)
	if !reflect.DeepEqual(a.ins, b.ins) || reflect.DeepEqual(a.ins, c.ins) {
		t.Error("batch instances: same seed must give the same instance, another seed another")
	}

	steady := replaySteady()
	sa, err := steady.script(9, 50)
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := steady.script(9, 50)
	sc, _ := steady.script(10, 50)
	if !reflect.DeepEqual(sa, sb) || reflect.DeepEqual(sa, sc) {
		t.Error("replay scripts: same seed must give the same script, another seed another")
	}

	serve := serveHTTP()
	ia, err := serve.script(9, 0)
	if err != nil {
		t.Fatal(err)
	}
	ib, _ := serve.script(9, 0)
	ic, _ := serve.script(10, 0)
	other, _ := serve.script(9, 1)
	if !reflect.DeepEqual(ia, ib) || reflect.DeepEqual(ia, ic) || reflect.DeepEqual(ia, other) {
		t.Error("client scripts: same seed and client must give the same script, another seed or client another")
	}
}

// TestVerdict pins the comparison rule -compare applies.
func TestVerdict(t *testing.T) {
	lower := manifestMetric{Name: "op_ms", Better: "lower", Bound: 0.10}
	higher := manifestMetric{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 80, 120, 70, 130, 90, 110, 100}
	cases := []struct {
		name string
		m    manifestMetric
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"5% slower is inside the bound", lower, steady, scale(steady, 1.05), "ok"},
		{"20% slower", lower, steady, scale(steady, 1.2), "regressed"},
		{"20% faster", lower, steady, scale(steady, 0.8), "ok"},
		{"20% less throughput", higher, steady, scale(steady, 0.8), "regressed"},
		{"20% more throughput", higher, steady, scale(steady, 1.2), "ok"},
		{"noise wider than the bound", lower, noisy, scale(noisy, 1.3), "unresolved"},
		{"noisy, but every run better", lower, noisy, scale(noisy, 0.3), "ok"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}
