// The fabric loop's behaviour as a client sees it. Package daemon has
// no HTTP surface of its own: coflowd serves a single fabric through a
// one-fabric shard.Cluster, so these black-box tests drive exactly that
// deployment over a real socket. (internal/shard's own tests cover
// routing across fabrics and pin the wire format byte for byte.)
package daemon_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"coflow/internal/coflowmodel"
	"coflow/internal/daemon"
	"coflow/internal/online"
	"coflow/internal/shard"
)

// newWire starts a one-fabric cluster (manual time unless fabric.Tick
// is set) behind an httptest server. Both are torn down with the test.
func newWire(t *testing.T, maxBody int64, fabric daemon.Config) (*shard.Cluster, string) {
	t.Helper()
	c, err := shard.New(shard.Config{Shards: 1, MaxBody: maxBody, AggEvery: -1, Fabric: fabric})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		srv.Close()
		_ = c.Close() // idempotent; TestE2E checks the first Close itself
	})
	return c, srv.URL
}

// doJSON issues a request, decodes the JSON response into out (when
// non-nil) and returns the response for status and header checks.
func doJSON(t *testing.T, method, url, body string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp
}

// wantError issues a request that must fail with the given status and
// the structured error body: {"error","kind"} as application/json.
func wantError(t *testing.T, method, url, body string, code int, kind string) *http.Response {
	t.Helper()
	var e struct{ Error, Kind string }
	resp := doJSON(t, method, url, body, &e)
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != code || e.Kind != kind || e.Error == "" || ct != "application/json" {
		t.Errorf("%s %s = %d %s %+v, want %d application/json %s", method, url, resp.StatusCode, ct, e, code, kind)
	}
	return resp
}

func register(t *testing.T, c *shard.Cluster, src, dst int, size int64) int {
	t.Helper()
	id, _, _, err := c.Register(&coflowmodel.Registration{
		Flows: []coflowmodel.Flow{{Src: src, Dst: dst, Size: size}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// oversized is a well-formed registration of ~2.7 KB.
var oversized = `{"flows": [` + strings.Repeat(`{"src":0,"dst":0,"size":1},`, 100) + `{"src":0,"dst":0,"size":1}]}`

// TestE2E drives the full lifecycle over HTTP: register, schedule to
// completion across ticks, observe status, schedule and metrics,
// cancel, then shut down gracefully and verify the final state
// snapshot on disk. (Body-level errors: TestHTTPStatusCodes.)
func TestE2E(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "final.json")
	c, url := newWire(t, 0, daemon.Config{Ports: 2, Policy: online.SEBF, SnapshotPath: snapPath})

	var health struct {
		Status string  `json:"status"`
		Slots  []int64 `json:"slots"`
	}
	if resp := doJSON(t, "GET", url+"/healthz", "", &health); resp.StatusCode != 200 || health.Status != "ok" || len(health.Slots) != 1 {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, health)
	}

	// Register the paper's Figure 1 coflow (ρ = 3).
	var created struct {
		ID      int   `json:"id"`
		Release int64 `json:"release"`
		Fabric  int   `json:"fabric"`
	}
	regBody := `{"weight": 1, "flows": [
		{"src": 0, "dst": 0, "size": 1}, {"src": 0, "dst": 1, "size": 2},
		{"src": 1, "dst": 0, "size": 2}, {"src": 1, "dst": 1, "size": 1}]}`
	if resp := doJSON(t, "POST", url+"/v1/coflows", regBody, &created); resp.StatusCode != 201 {
		t.Fatalf("register = %d", resp.StatusCode)
	}
	if created.ID != 1 || created.Release != 0 || created.Fabric != 0 {
		t.Fatalf("created = %+v", created)
	}

	wantError(t, "GET", url+"/v1/coflows/42", "", 404, "not_found")
	wantError(t, "GET", url+"/v1/coflows/zero", "", 400, "validation")

	// Drive the scheduler across ticks until the coflow completes;
	// greedy needs between ρ=3 and 2ρ−1=5 slots.
	var status daemon.CoflowStatus
	for tick := 0; tick < 5; tick++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if resp := doJSON(t, "GET", url+"/v1/coflows/1", "", &status); resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if tick == 0 {
			// Mid-flight: the schedule endpoint shows a live matching.
			var sched struct {
				Schedules []struct {
					Slot        int64               `json:"slot"`
					Policy      string              `json:"policy"`
					Assignments []online.Assignment `json:"assignments"`
				} `json:"schedules"`
			}
			if resp := doJSON(t, "GET", url+"/v1/schedule", "", &sched); resp.StatusCode != 200 || len(sched.Schedules) != 1 {
				t.Fatalf("schedule = %d %+v", resp.StatusCode, sched)
			}
			if s := sched.Schedules[0]; s.Slot != 1 || s.Policy != "SEBF" || len(s.Assignments) == 0 {
				t.Fatalf("schedule after first tick = %+v", s)
			}
		}
		if status.State == "completed" {
			break
		}
	}
	if status.State != "completed" || status.Completed < 3 || status.Completed > 5 {
		t.Fatalf("final status = %+v, want completion in [3, 5]", status)
	}

	// Metrics: non-zero slot latency, the completion accounted — in the
	// rollup and in the fabric's own document under per_shard.
	var cm shard.ClusterMetrics
	if resp := doJSON(t, "GET", url+"/v1/metrics", "", &cm); resp.StatusCode != 200 || len(cm.PerShard) != 1 {
		t.Fatalf("metrics = %d %+v", resp.StatusCode, cm)
	}
	m := cm.PerShard[0].Metrics
	if m.Ticks == 0 || m.TickLatency.Count == 0 || m.TickLatency.Max <= 0 {
		t.Fatalf("slot latency not exported: %+v", m)
	}
	if m.Completed != 1 || m.TotalWeighted != float64(status.Completed) || cm.Completed != 1 {
		t.Fatalf("completion metrics wrong: %+v", cm)
	}

	// Cancel flow: register a second coflow, cancel it, verify both
	// the conflict on re-cancel and the listing.
	if resp := doJSON(t, "POST", url+"/v1/coflows",
		`{"flows": [{"src": 0, "dst": 0, "size": 50}]}`, &created); resp.StatusCode != 201 {
		t.Fatalf("second register = %d", resp.StatusCode)
	}
	cancelURL := fmt.Sprintf("%s/v1/coflows/%d", url, created.ID)
	if resp := doJSON(t, "DELETE", cancelURL, "", nil); resp.StatusCode != 200 {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	wantError(t, "DELETE", cancelURL, "", 409, "terminal_coflow")
	var list struct {
		Slots   []int64                      `json:"slots"`
		Coflows map[int]*daemon.CoflowStatus `json:"coflows"`
	}
	if resp := doJSON(t, "GET", url+"/v1/coflows", "", &list); resp.StatusCode != 200 {
		t.Fatalf("list = %d", resp.StatusCode)
	}
	if len(list.Coflows) != 2 || list.Coflows[created.ID].State != "cancelled" || list.Slots[0] != status.Completed {
		t.Fatalf("list = %+v", list)
	}

	// Graceful shutdown: stop the loop, write the final snapshot,
	// refuse further work.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("final snapshot not written: %v", err)
	}
	var snap daemon.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("final snapshot is not valid JSON: %v", err)
	}
	if cs := snap.Coflows.Get(1); cs == nil || cs.State != "completed" || cs.Completed != status.Completed {
		t.Fatalf("final snapshot coflow 1 = %+v", snap.Coflows.Get(1))
	}
	if snap.Metrics.Registered != 2 || snap.Metrics.Cancelled != 1 {
		t.Fatalf("final snapshot metrics = %+v", snap.Metrics)
	}
	wantError(t, "POST", url+"/v1/coflows", regBody, 503, "unavailable")
	wantError(t, "GET", url+"/healthz", "", 503, "unavailable")
}

// TestE2ERealTicker exercises the wall-clock path: the internal
// ticker drives the virtual switch while the client polls over HTTP.
// Timing-dependent, so skipped under -short (tier-1 runs stay fast).
func TestE2ERealTicker(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock ticker test skipped in -short mode")
	}
	_, url := newWire(t, 0, daemon.Config{Ports: 2, Policy: online.WSPT, Tick: 2 * time.Millisecond})

	var created struct {
		ID int `json:"id"`
	}
	if resp := doJSON(t, "POST", url+"/v1/coflows",
		`{"flows": [{"src": 0, "dst": 1, "size": 5}, {"src": 1, "dst": 0, "size": 5}]}`,
		&created); resp.StatusCode != 201 {
		t.Fatalf("register = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var status daemon.CoflowStatus
		if resp := doJSON(t, "GET", fmt.Sprintf("%s/v1/coflows/%d", url, created.ID), "", &status); resp.StatusCode != 200 {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if status.State == "completed" {
			if status.Completed < status.Load {
				t.Fatalf("completed at %d, below ρ = %d", status.Completed, status.Load)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coflow did not complete under the real ticker: %+v", status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var cm shard.ClusterMetrics
	if resp := doJSON(t, "GET", url+"/v1/metrics", "", &cm); resp.StatusCode != 200 {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if m := cm.PerShard[0].Metrics; m.Ticks == 0 || m.TickLatency.Max <= 0 {
		t.Fatalf("ticker metrics empty: %+v", m)
	}
}

// TestHTTPStatusCodes pins one handler test per hardened status code:
// structured 400 for malformed JSON vs validation failures, 405 (not
// 404) with an Allow header for wrong methods, 413 for oversized
// bodies, 404 for unknown paths — all with machine-readable kinds.
func TestHTTPStatusCodes(t *testing.T) {
	_, url := newWire(t, 256, daemon.Config{Ports: 2, Policy: online.SEBF})

	t.Run("400 malformed JSON", func(t *testing.T) {
		wantError(t, "POST", url+"/v1/coflows", `{"flows": [`, 400, "malformed_json")
	})
	t.Run("400 validation", func(t *testing.T) {
		wantError(t, "POST", url+"/v1/coflows", `{"flows": [{"src": 9, "dst": 0, "size": 1}]}`, 400, "validation")
	})
	t.Run("413 oversized body", func(t *testing.T) {
		wantError(t, "POST", url+"/v1/coflows", oversized, 413, "too_large")
	})
	t.Run("405 wrong method", func(t *testing.T) {
		for path, method := range map[string]string{
			"/v1/coflows":   "PUT",
			"/v1/coflows/1": "POST",
			"/v1/schedule":  "DELETE",
			"/v1/metrics":   "POST",
			"/metrics":      "POST",
			"/healthz":      "DELETE",
		} {
			resp := wantError(t, method, url+path, "", 405, "method_not_allowed")
			if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
				t.Errorf("%s %s: Allow header %q", method, path, allow)
			}
		}
	})
	t.Run("404 unknown path still 404", func(t *testing.T) {
		for _, path := range []string{"/v1/nope", "/", "/v1/coflows/"} {
			wantError(t, "GET", url+path, "", 404, "not_found")
		}
	})
}

// TestHTTPCancelTerminalCoflow: cancelling a coflow that already
// reached a terminal state (cancelled or completed) answers 409 with
// the dedicated kind "terminal_coflow", not the generic "conflict".
func TestHTTPCancelTerminalCoflow(t *testing.T) {
	c, url := newWire(t, 0, daemon.Config{Ports: 2, Policy: online.SEBF})
	cancelled := register(t, c, 0, 1, 5)
	completed := register(t, c, 1, 0, 1)

	idPath := func(id int) string { return fmt.Sprintf("%s/v1/coflows/%d", url, id) }
	if resp := doJSON(t, "DELETE", idPath(cancelled), "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first DELETE = %d, want 200", resp.StatusCode)
	}
	// Drain the one-unit coflow so it terminates by completion.
	if err := c.Tick(); err != nil {
		t.Fatal(err)
	}
	if _, st, ok := c.Owner(completed); !ok || st.State != "completed" {
		t.Fatalf("coflow %d not completed after tick: %+v", completed, st)
	}
	wantError(t, "DELETE", idPath(cancelled), "", 409, "terminal_coflow")
	wantError(t, "DELETE", idPath(completed), "", 409, "terminal_coflow")
	// Unknown IDs stay 404 not_found — terminal_coflow must not leak there.
	wantError(t, "DELETE", idPath(99999), "", 404, "not_found")
}

// TestHTTPBulkCancelBodyErrors: body-level breakage fails the whole
// request with the structured kinds shared with bulk registration.
func TestHTTPBulkCancelBodyErrors(t *testing.T) {
	_, url := newWire(t, 0, daemon.Config{Ports: 2, Policy: online.SEBF})
	for body, kind := range map[string]string{
		`{"ids": [1]}`: "malformed_json", // object, not array
		`[1, 2`:        "malformed_json",
		`[]`:           "validation",
	} {
		wantError(t, "DELETE", url+"/v1/coflows", body, 400, kind)
	}
}

// TestHTTPPortFailRecover drives the failure injection routes: fail
// parks the port (visible in metrics), recover clears it, and bad
// ports get structured validation errors.
func TestHTTPPortFailRecover(t *testing.T) {
	c, url := newWire(t, 0, daemon.Config{Ports: 4, Policy: online.SEBF})
	var ack struct {
		Port   int  `json:"port"`
		Failed bool `json:"failed"`
	}
	if resp := doJSON(t, "POST", url+"/v1/ports/2/fail", "", &ack); resp.StatusCode != http.StatusOK || ack.Port != 2 || !ack.Failed {
		t.Fatalf("fail port 2 = %d %+v", resp.StatusCode, ack)
	}
	m := c.Fabric(0).Snapshot().Metrics
	if m.PortsFailed != 1 || len(m.FailedPorts) != 1 || m.FailedPorts[0] != 2 {
		t.Fatalf("metrics after fail = %+v", m)
	}
	if resp := doJSON(t, "POST", url+"/v1/ports/2/recover", "", &ack); resp.StatusCode != http.StatusOK || ack.Failed {
		t.Fatalf("recover port 2 = %d %+v", resp.StatusCode, ack)
	}
	if m := c.Fabric(0).Snapshot().Metrics; m.PortsFailed != 0 {
		t.Fatalf("metrics after recover = %+v", m)
	}
	wantError(t, "POST", url+"/v1/ports/99/fail", "", 400, "validation")
	wantError(t, "POST", url+"/v1/ports/x/fail", "", 400, "validation")
}
