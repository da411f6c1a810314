package shard

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"coflow/internal/daemon"
	"coflow/internal/online"
)

// updateWire regenerates testdata/wire_golden.json instead of
// comparing: go test ./internal/shard/ -run TestWireGolden -update-wire
var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire_golden.json from the current handlers")

const wireGoldenPath = "testdata/wire_golden.json"

// wireScript is the fixed request sequence behind the wire golden. It
// runs against a manual-time cluster, so every answer — IDs, release
// slots, routing, error text — is a function of the script alone.
// Pins to fabrics 1..3 succeed at four fabrics and fail at one, so the
// same script covers both outcomes (IDs below 128 all hash to fabric 0).
// Method "TICK" advances every fabric one slot instead of sending a
// request. /v1/metrics and /metrics are left out: they carry
// wall-clock latencies.
var wireScript = []struct{ method, path, body string }{
	{"GET", "/healthz", ""},
	{"POST", "/v1/coflows", `{"weight": 2, "flows": [{"src": 0, "dst": 1, "size": 2}]}`},
	{"POST", "/v1/coflows", `[
		{"flows": [{"src": 1, "dst": 0, "size": 9}]},
		{"flows": [{"src": 9, "dst": 0, "size": 1}]},
		{"typo": true},
		{"flows": [{"src": 0, "dst": 1, "size": 2}], "fabric": 9},
		{"weight": 3, "flows": [{"src": 2, "dst": 3, "size": 9}], "fabric": 0},
		7]`},
	{"POST", "/v1/coflows", `{"flows": [{"src": 0, "dst": 0, "size": 1}], "fabric": 9}`},
	{"POST", "/v1/coflows", `[
		{"flows": [{"src": 3, "dst": 2, "size": 5}], "fabric": 1},
		{"flows": [{"src": 3, "dst": 2, "size": 5}], "fabric": 2},
		{"flows": [{"src": 3, "dst": 2, "size": 5}], "fabric": 3},
		{"flows": [{"src": 3, "dst": 2, "size": 5}]},
		{"flows": []}]`},
	{"POST", "/v1/coflows", `{"flows": [{"src": 9, "dst": 0, "size": 1}]}`},
	{"POST", "/v1/coflows", `{"flows": [`},
	{"POST", "/v1/coflows", `"nope"`},
	{"POST", "/v1/coflows", `{"typo": 1}`},
	{"POST", "/v1/coflows", `{"flows": [` + strings.Repeat(`{"src":0,"dst":0,"size":1},`, 30) + `{"src":0,"dst":0,"size":1}]}`}, // > 512-byte cap
	{"GET", "/v1/coflows/1", ""},
	{"GET", "/v1/coflows/8", ""},
	{"GET", "/v1/coflows/99", ""},
	{"GET", "/v1/coflows/zero", ""},
	{"GET", "/v1/coflows", ""},
	{"TICK", "", ""},
	{"GET", "/v1/schedule", ""},
	{"GET", "/v1/schedule?fabric=0", ""},
	{"GET", "/v1/schedule?fabric=7", ""},
	{"GET", "/v1/schedule?fabric=x", ""},
	{"POST", "/v1/ports/1/fail", ""},
	{"POST", "/v1/ports/1/fail?fabric=3", ""},
	{"POST", "/v1/ports/1/recover?fabric=0", ""},
	{"POST", "/v1/ports/1/recover", ""},
	{"POST", "/v1/ports/99/fail", ""},
	{"POST", "/v1/ports/x/fail", ""},
	{"POST", "/v1/ports/1/recover?fabric=-2", ""},
	{"DELETE", "/v1/coflows/2", ""},
	{"DELETE", "/v1/coflows/2", ""},
	{"TICK", "", ""},
	{"GET", "/v1/coflows/1", ""},
	{"DELETE", "/v1/coflows/1", ""},
	{"DELETE", "/v1/coflows/99", ""},
	{"DELETE", "/v1/coflows/0", ""},
	{"DELETE", "/v1/coflows", `[4, 99, 2, -7, 7]`},
	{"DELETE", "/v1/coflows", `{"ids": [1]}`},
	{"DELETE", "/v1/coflows", `[1, 2`},
	{"DELETE", "/v1/coflows", `[]`},
	{"DELETE", "/v1/coflows", "[" + strings.Repeat("1, ", 200) + "1]"},
	{"PUT", "/v1/coflows", ""},
	{"POST", "/v1/coflows/1", ""},
	{"GET", "/v1/ports/1/fail", ""},
	{"GET", "/v1/ports/1/recover", ""},
	{"DELETE", "/v1/schedule", ""},
	{"POST", "/v1/metrics", ""},
	{"POST", "/metrics", ""},
	{"DELETE", "/healthz", ""},
	{"GET", "/v1/coflows", ""},
	{"GET", "/healthz", ""},
	// Unknown paths and trailing body data. These rows postdate the rest
	// (which were generated before the daemon's own handler set was
	// deleted) and answer 4xx without touching any state.
	{"GET", "/v1/nope", ""},
	{"GET", "/", ""},
	{"GET", "/v1/coflows/", ""},
	{"POST", "/v1/coflows", `{"flows": [{"src": 0, "dst": 1, "size": 1}]} {"flows": [{"src": 1, "dst": 0, "size": 1}]}`},
	{"POST", "/v1/coflows", `[{"flows": [{"src": 0, "dst": 1, "size": 1}]}] garbage`},
	{"DELETE", "/v1/coflows", `[9] garbage`},
	{"DELETE", "/v1/coflows", `[9] [10]`},
	{"GET", "/v1/coflows", ""},
}

// wireRow is one answered request in the golden file. Body is the
// response as served (marshalling a RawMessage validates it and strips
// insignificant whitespace, nothing else), so key order is pinned too.
type wireRow struct {
	Request string          `json:"request"`
	Status  int             `json:"status"`
	Allow   string          `json:"allow,omitempty"`
	Body    json.RawMessage `json:"body"`
}

// TestWireGolden pins every byte coflowd answers, at one fabric and at
// four: the control plane may be refactored freely as long as this
// file does not change. Rows are written one per line, so a drifted
// answer is a one-line diff.
func TestWireGolden(t *testing.T) {
	var sections [][]byte
	for _, shards := range []int{1, 4} {
		c := newTestCluster(t, Config{Shards: shards, MaxBody: 512,
			Fabric: daemon.Config{Ports: 4, Policy: online.SEBF}})
		h := c.Handler()
		var rows [][]byte
		for _, step := range wireScript {
			if step.method == "TICK" {
				if err := c.Tick(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(step.method, step.path, strings.NewReader(step.body)))
			row, err := json.Marshal(wireRow{
				Request: step.method + " " + step.path,
				Status:  rec.Code,
				Allow:   rec.Header().Get("Allow"),
				Body:    rec.Body.Bytes(),
			})
			if err != nil {
				t.Fatalf("shards=%d %s %s: body %q is not JSON: %v", shards, step.method, step.path, rec.Body, err)
			}
			rows = append(rows, row)
		}
		sections = append(sections, fmt.Appendf(nil, " \"shards=%d\": [\n  %s\n ]", shards, bytes.Join(rows, []byte(",\n  "))))
	}
	got := fmt.Appendf(nil, "{\n%s\n}\n", bytes.Join(sections, []byte(",\n")))
	if *updateWire {
		if err := os.WriteFile(wireGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wireGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := bytes.Split(want, []byte("\n"))
	for i, line := range bytes.Split(got, []byte("\n")) {
		if i >= len(wantLines) || !bytes.Equal(line, wantLines[i]) {
			t.Fatalf("wire format drifted from %s at line %d, got:\n%s\n(if intended: go test ./internal/shard/ -run TestWireGolden -update-wire)",
				wireGoldenPath, i+1, line)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s has rows the handlers no longer produce", wireGoldenPath)
	}
}
