package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/online"
)

// TestBuiltinsReplayClean is the acceptance gate: every built-in
// scenario replays through the in-process driver under every policy
// with the monitor validating each slot, the planner cross-checked,
// zero violations, and zero demand lost — in == served + shed, with
// nothing left live.
func TestBuiltinsReplayClean(t *testing.T) {
	for _, name := range Builtins() {
		script, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []online.Policy{online.FIFO, online.SEBF, online.WSPT} {
			rep, err := Run(script, Options{Policy: policy, Plan: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, policy, err)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("%s/%s: %d violations: %v", name, policy, len(rep.Violations), rep.Violations)
			}
			if rep.DemandLive != 0 {
				t.Fatalf("%s/%s: %d units still live after replay", name, policy, rep.DemandLive)
			}
			if rep.DemandIn != rep.DemandServed+rep.DemandShed {
				t.Fatalf("%s/%s: demand lost: in %d, served %d, shed %d",
					name, policy, rep.DemandIn, rep.DemandServed, rep.DemandShed)
			}
			if rep.Completed+rep.Cancelled != rep.Registered {
				t.Fatalf("%s/%s: %d registered but %d completed + %d cancelled",
					name, policy, rep.Registered, rep.Completed, rep.Cancelled)
			}
			if rep.Completed > 0 && (rep.Slowdown.Count != rep.Completed || rep.Slowdown.P50 < 1) {
				t.Fatalf("%s/%s: slowdown summary %+v for %d completions",
					name, policy, rep.Slowdown, rep.Completed)
			}
		}
	}
}

// TestBuiltinsReplayShadowed runs every built-in scenario, port
// failures included, through the check.Shadow differential oracle
// under every policy: the fast sparse path and the dense reference
// must agree on every slot under churn and failure windows.
func TestBuiltinsReplayShadowed(t *testing.T) {
	for _, name := range Builtins() {
		script, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, policy := range []online.Policy{online.FIFO, online.SEBF, online.WSPT} {
			rep, err := Run(script, Options{Policy: policy, Shadow: true, ReproDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, policy, err)
			}
			if len(rep.Violations) != 0 || rep.DemandLive != 0 {
				t.Fatalf("%s/%s: %d units live, violations %v", name, policy, rep.DemandLive, rep.Violations)
			}
		}
	}
}

// TestPortFailureParksDemand pins the tentpole invariant directly: a
// script whose only coflow sits entirely on a failed port must end
// with that demand served after recovery — parked in between, never
// dropped — and the replay must count zero violations.
func TestPortFailureParksDemand(t *testing.T) {
	script := &Script{
		Name:  "parked",
		Ports: 3,
		Events: []Event{
			{Slot: 0, Op: OpFail, Port: 0},
			{Slot: 0, Op: OpRegister, Key: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 4}}},
			{Slot: 0, Op: OpRegister, Key: 2, Flows: []coflowmodel.Flow{{Src: 2, Dst: 1, Size: 2}}},
			{Slot: 10, Op: OpRecover, Port: 0},
		},
	}
	rep, err := Run(script, Options{Policy: online.SEBF, Plan: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.DemandServed != 6 || rep.Completed != 2 {
		t.Fatalf("served %d / completed %d, want all 6 units across 2 coflows", rep.DemandServed, rep.Completed)
	}
	// Key 1 cannot finish before the recovery at slot 10 plus its 4
	// units; key 2 is unobstructed.
	if rep.Slots < 13 {
		t.Fatalf("replay finished at slot %d, before the parked demand could drain", rep.Slots)
	}
}

// TestCancelOfCompletedIsExpectedChurn: a cancel landing after its
// coflow completed is counted, not treated as an error.
func TestCancelOfCompletedIsExpectedChurn(t *testing.T) {
	script := &Script{
		Name:  "late-cancel",
		Ports: 2,
		Events: []Event{
			{Slot: 0, Op: OpRegister, Key: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 1}}},
			{Slot: 5, Op: OpCancel, Key: 1},
		},
	}
	rep, err := Run(script, Options{Policy: online.FIFO, Plan: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CancelMisses != 1 || rep.Cancelled != 0 || rep.Completed != 1 {
		t.Fatalf("report = %+v, want one cancel miss and one completion", rep)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

// TestReproducerDump: a violating replay writes a parseable JSON
// reproducer containing the script and the violation text.
func TestReproducerDump(t *testing.T) {
	dir := t.TempDir()
	script := validScript()
	path := dumpReproducer(dir, script, []string{"slot 3: something broke"})
	if path == "" {
		t.Fatal("no reproducer written")
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var repro struct {
		Script     *Script  `json:"script"`
		Violations []string `json:"violations"`
	}
	if err := json.Unmarshal(blob, &repro); err != nil {
		t.Fatal(err)
	}
	if repro.Script == nil || repro.Script.Name != script.Name || len(repro.Violations) != 1 {
		t.Fatalf("reproducer = %+v", repro)
	}
	if err := repro.Script.Validate(); err != nil {
		t.Fatalf("reproducer script does not validate: %v", err)
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("reproducer %s outside %s", path, dir)
	}
}

// TestStallDetection: a script that parks all demand forever (fail
// with no recover) trips the horizon guard instead of spinning.
func TestStallDetection(t *testing.T) {
	script := &Script{
		Name:  "stall",
		Ports: 2,
		Events: []Event{
			{Slot: 0, Op: OpFail, Port: 0},
			{Slot: 0, Op: OpFail, Port: 1},
			{Slot: 0, Op: OpRegister, Key: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 2}}},
		},
	}
	if _, err := Run(script, Options{Policy: online.SEBF, MaxSlots: 50}); err == nil ||
		!strings.Contains(err.Error(), "stalled") {
		t.Fatalf("stall not detected: %v", err)
	}
}
