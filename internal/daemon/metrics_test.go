package daemon

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/online"
)

// scrape renders the daemon's registry as the cluster's GET /metrics
// does for every fabric (there with a fabric="i" label per sample).
func scrape(t *testing.T, d *Daemon) string {
	t.Helper()
	var buf strings.Builder
	if err := d.MetricsRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// promValue extracts the value of an unlabelled sample line
// ("name 42") from a Prometheus text body.
func promValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("sample %q has unparsable value %q: %v", name, rest, err)
		}
		return v
	}
	t.Fatalf("sample %q not found in scrape", name)
	return 0
}

// runSomeTraffic registers two coflows and runs the daemon until both
// complete, returning the number of ticks driven.
func runSomeTraffic(t *testing.T, d *Daemon) int {
	t.Helper()
	for _, flows := range [][]coflowmodel.Flow{
		{{Src: 0, Dst: 0, Size: 2}, {Src: 0, Dst: 1, Size: 1}, {Src: 1, Dst: 1, Size: 2}},
		{{Src: 1, Dst: 0, Size: 3}},
	} {
		if _, _, err := register(d, &coflowmodel.Registration{Weight: 1, Flows: flows}); err != nil {
			t.Fatal(err)
		}
	}
	const ticks = 12
	for i := 0; i < ticks; i++ {
		if err := d.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	return ticks
}

// TestPrometheusScrape: the registry a scrape renders carries
// HELP/TYPE metadata, stage histograms fed by real ticks, and the
// warm-start counters the replay fast path maintains. (Status and
// content-type of the route itself: shard.TestHTTPPrometheus.)
func TestPrometheusScrape(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 2, Policy: online.SEBF, SelfCheck: true, SelfCheckEvery: 1})
	ticks := runSomeTraffic(t, d)
	body := scrape(t, d)

	// Metadata lines for a representative stage histogram.
	for _, want := range []string{
		"# HELP coflow_step_seconds ",
		"# TYPE coflow_step_seconds histogram",
		"# TYPE coflowd_ticks_total counter",
		"# TYPE coflowd_active_coflows gauge",
		"# TYPE coflowd_publish_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Stage histograms observed one sample per tick.
	if got := promValue(t, body, "coflow_step_seconds_count"); got != float64(ticks) {
		t.Errorf("coflow_step_seconds_count = %v, want %d", got, ticks)
	}
	if got := promValue(t, body, `coflow_step_seconds_bucket{le="+Inf"}`); got != float64(ticks) {
		t.Errorf("+Inf bucket = %v, want %d", got, ticks)
	}
	if got := promValue(t, body, "coflowd_ticks_total"); got != float64(ticks) {
		t.Errorf("coflowd_ticks_total = %v, want %d", got, ticks)
	}

	// One publication per command (each was sent alone and awaited: two
	// registrations, then the ticks) plus the initial one at start-up.
	if got := promValue(t, body, "coflowd_publish_seconds_count"); got != float64(ticks+3) {
		t.Errorf("coflowd_publish_seconds_count = %v, want %d", got, ticks+3)
	}

	// The warm-start counters partition serving steps: hits (replays)
	// plus misses (full scans) is the number of non-idle steps.
	hits := promValue(t, body, "coflow_step_matcher_warm_start_hits_total")
	misses := promValue(t, body, "coflow_step_matcher_warm_start_misses_total")
	idle := promValue(t, body, "coflow_step_idle_total")
	if hits+misses+idle != float64(ticks) {
		t.Errorf("hits(%v) + misses(%v) + idle(%v) != ticks(%d)", hits, misses, idle, ticks)
	}
	if misses == 0 {
		t.Error("expected at least one full scan (every first serving slot is one)")
	}

	// Completions flow through to both counter and wait/service
	// histograms.
	if got := promValue(t, body, "coflowd_coflows_completed_total"); got != 2 {
		t.Errorf("coflowd_coflows_completed_total = %v, want 2", got)
	}
	if got := promValue(t, body, "coflowd_coflow_wait_slots_count"); got != 2 {
		t.Errorf("coflowd_coflow_wait_slots_count = %v, want 2", got)
	}
	if got := promValue(t, body, "coflowd_active_coflows"); got != 0 {
		t.Errorf("coflowd_active_coflows = %v, want 0 after drain", got)
	}
}

// TestPrometheusSelfCheckCounter: the -selfcheck monitor's violation
// count surfaces as coflowd_self_check_violations_total. A clean run
// scrapes as 0; flagged violations appear in the next scrape. (The
// counter is bumped directly here because a genuine violation
// requires a scheduler bug; the monitor→counter plumbing is one line
// in the tick handler, exercised by the clean-run assertions.)
func TestPrometheusSelfCheckCounter(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 2, Policy: online.WSPT, SelfCheck: true, SelfCheckEvery: 1})
	runSomeTraffic(t, d)

	if got := promValue(t, scrape(t, d), "coflowd_self_check_violations_total"); got != 0 {
		t.Fatalf("clean run scraped %v violations, want 0", got)
	}

	d.obs.selfCheckViolations.Add(3)
	if got := promValue(t, scrape(t, d), "coflowd_self_check_violations_total"); got != 3 {
		t.Errorf("after flagging, scraped %v violations, want 3", got)
	}
}

// TestEnrichedMetricsJSON: the Metrics document — what GET /v1/metrics
// serves per fabric under per_shard[i].metrics — carries the
// per-coflow wait/service breakdowns, the per-stage latency snapshots,
// and the matcher warm-start hit rate.
func TestEnrichedMetricsJSON(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 2, Policy: online.SEBF})
	ticks := runSomeTraffic(t, d)

	raw, err := json.Marshal(d.Snapshot().Metrics)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	var m Metrics
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("Metrics does not round-trip: %v", err)
	}
	if m.Completed != 2 {
		t.Fatalf("completed = %d, want 2", m.Completed)
	}
	if m.Wait.Count != 2 || m.Service.Count != 2 {
		t.Errorf("wait/service counts = %d/%d, want 2/2", m.Wait.Count, m.Service.Count)
	}
	if m.Wait.Min < 0 {
		t.Errorf("negative wait %v", m.Wait.Min)
	}
	// Both coflows have load ρ = 3 (coflow 1: src 0 and dst 1 each sum
	// to 3; coflow 2: one flow of size 3).
	if m.Service.Mean != 3 {
		t.Errorf("service mean = %v, want 3", m.Service.Mean)
	}
	if got := m.StageLatency.Step.Count; got != uint64(ticks) {
		t.Errorf("stage step count = %d, want %d", got, ticks)
	}
	if m.StageLatency.Step.P99 < m.StageLatency.Step.P50 {
		t.Errorf("step p99 %v < p50 %v", m.StageLatency.Step.P99, m.StageLatency.Step.P50)
	}
	// A publication is timed after its snapshot is stored, so the last
	// snapshot counts every publication before it: start-up, two
	// registrations and all ticks but the last.
	if got := m.StageLatency.Publish.Count; got != uint64(ticks+2) {
		t.Errorf("stage publish count = %d, want %d", got, ticks+2)
	}
	if m.StageLatency.Publish.Mean <= 0 {
		t.Errorf("stage publish mean = %v, want > 0", m.StageLatency.Publish.Mean)
	}
	if m.MatcherWarmStartHitRate < 0 || m.MatcherWarmStartHitRate > 1 {
		t.Errorf("warm-start hit rate %v outside [0,1]", m.MatcherWarmStartHitRate)
	}
	// JSON must expose the documented field names.
	for _, key := range []string{`"wait"`, `"service"`, `"stage_latency"`, `"publish"`, `"matcher_warm_start_hit_rate"`} {
		if !strings.Contains(body, key) {
			t.Errorf("payload missing %s", key)
		}
	}
}
