package shard

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/daemon"
	"coflow/internal/scenario"
)

// replayOverHTTP drives script against the control plane at url, one
// tick() per script slot, so the run has no wall clock in it. Script
// keys map to server-assigned IDs (a re-registered key is a fresh
// server coflow), and a cancel answered 409 terminal_coflow lost the
// race against completion, which the script expects. It returns an
// error, so that a planted fault can be asserted, on any other non-2xx
// answer, on a coflow still not terminal Horizon slots in, or when
// /v1/metrics disagrees with what the client saw or with itself
// (registered != completed + cancelled).
func replayOverHTTP(t *testing.T, url string, tick func() error, script *scenario.Script) error {
	t.Helper()
	ids := map[int]int{} // script key -> live server id
	var tracked []int    // every server id ever created
	var registered, cancelled int64
	// call fails the test on a transport or decoding problem and returns
	// an error for an answer the script does not expect.
	call := func(method, path string, payload, out any) (int, error) {
		var body []byte
		if payload != nil {
			var err error
			if body, err = json.Marshal(payload); err != nil {
				t.Fatal(err)
			}
		}
		code, raw := doJSON(t, method, url+path, string(body), out)
		if code >= 300 && !(method == http.MethodDelete && code == http.StatusConflict) {
			return code, fmt.Errorf("%s %s: status %d: %s", method, path, code, raw)
		}
		return code, nil
	}
	// unresolved lists the tracked coflows the server does not report
	// as terminal: still active, or gone from the table.
	unresolved := func() ([]int, error) {
		var list struct {
			Coflows map[int]struct {
				State string `json:"state"`
			} `json:"coflows"`
		}
		if _, err := call(http.MethodGet, "/v1/coflows", nil, &list); err != nil {
			return nil, err
		}
		var open []int
		for _, id := range tracked {
			if cs, ok := list.Coflows[id]; !ok || cs.State == "active" {
				open = append(open, id)
			}
		}
		return open, nil
	}

	var slot int64
	for _, ev := range script.Events {
		for ; slot < ev.Slot; slot++ {
			if err := tick(); err != nil {
				return err
			}
		}
		switch ev.Op {
		case scenario.OpRegister:
			weight := ev.Weight
			if weight == 0 {
				weight = 1
			}
			var created struct {
				ID int `json:"id"`
			}
			reg := &coflowmodel.Registration{Weight: weight, Flows: ev.Flows}
			if _, err := call(http.MethodPost, "/v1/coflows", reg, &created); err != nil {
				return err
			}
			if created.ID == 0 {
				return fmt.Errorf("register of key %d answered no id", ev.Key)
			}
			registered++
			ids[ev.Key] = created.ID
			tracked = append(tracked, created.ID)
		case scenario.OpCancel:
			code, err := call(http.MethodDelete, fmt.Sprintf("/v1/coflows/%d", ids[ev.Key]), nil, nil)
			if err != nil {
				return err
			}
			delete(ids, ev.Key)
			if code != http.StatusConflict {
				cancelled++
			}
		case scenario.OpFail, scenario.OpRecover:
			if _, err := call(http.MethodPost, fmt.Sprintf("/v1/ports/%d/%s", ev.Port, ev.Op), nil, nil); err != nil {
				return err
			}
		}
	}

	open, err := unresolved()
	for ; err == nil && len(open) > 0 && slot < script.Horizon(); slot++ {
		if err = tick(); err == nil {
			open, err = unresolved()
		}
	}
	if err != nil {
		return err
	}
	if len(open) > 0 {
		return fmt.Errorf("%d of %d coflows unresolved after %d slots: ids %v", len(open), len(tracked), slot, open)
	}
	var m struct {
		Registered, Completed, Cancelled int64
	}
	if _, err := call(http.MethodGet, "/v1/metrics", nil, &m); err != nil {
		return err
	}
	if m.Registered != registered || m.Cancelled != cancelled || m.Registered != m.Completed+m.Cancelled {
		return fmt.Errorf("client saw %d registered / %d cancelled, /v1/metrics says %d registered = %d completed + %d cancelled",
			registered, cancelled, m.Registered, m.Completed, m.Cancelled)
	}
	return nil
}

// TestScenariosOverHTTP replays the built-in churn and port-failure
// scripts end to end through the wire: every register, cancel, fail
// and recover is an HTTP request against a two-fabric cluster whose
// clock is the test's own Tick calls. Under that clock the built-ins
// never lose a cancel to completion, so a third script does on purpose.
func TestScenariosOverHTTP(t *testing.T) {
	scripts := []*scenario.Script{{Name: "late-cancel", Ports: 2, Events: []scenario.Event{
		{Slot: 0, Op: scenario.OpRegister, Key: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 1}}},
		{Slot: 4, Op: scenario.OpCancel, Key: 1},
	}}}
	for _, name := range []string{"churn-cancel", "port-failure"} {
		script, err := scenario.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		scripts = append(scripts, script)
	}
	for _, script := range scripts {
		t.Run(script.Name, func(t *testing.T) {
			c, srv := newTestServer(t, Config{Shards: 2, Fabric: daemon.Config{Ports: script.Ports}})
			if err := replayOverHTTP(t, srv.URL, c.Tick, script); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScenarioReplayCatchesPlantedFaults keeps the replay honest: a
// single 500 among the answers and a coflow parked behind a port that
// never recovers must each fail it.
func TestScenarioReplayCatchesPlantedFaults(t *testing.T) {
	t.Run("5xx", func(t *testing.T) {
		script, err := scenario.Builtin("churn-cancel")
		if err != nil {
			t.Fatal(err)
		}
		c := newTestCluster(t, Config{Shards: 2, Fabric: daemon.Config{Ports: script.Ports}})
		posts, h := 0, c.Handler()
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				if posts++; posts == 7 {
					writeError(w, http.StatusInternalServerError, "planted", "planted fault")
					return
				}
			}
			h.ServeHTTP(w, r)
		}))
		defer srv.Close()
		err = replayOverHTTP(t, srv.URL, c.Tick, script)
		if err == nil || !strings.Contains(err.Error(), "status 500") {
			t.Fatalf("planted 500 not reported: %v", err)
		}
	})
	t.Run("unresolved", func(t *testing.T) {
		script := &scenario.Script{Name: "parked", Ports: 2, Events: []scenario.Event{
			{Slot: 0, Op: scenario.OpFail, Port: 1},
			{Slot: 0, Op: scenario.OpRegister, Key: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 3}}},
			{Slot: 1, Op: scenario.OpRegister, Key: 2, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 2}}},
		}}
		if err := script.Validate(); err != nil {
			t.Fatal(err)
		}
		c, srv := newTestServer(t, Config{Shards: 2})
		err := replayOverHTTP(t, srv.URL, c.Tick, script)
		if err == nil || !strings.Contains(err.Error(), "1 of 2 coflows unresolved") {
			t.Fatalf("parked coflow not reported: %v", err)
		}
	})
}
