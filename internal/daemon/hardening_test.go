package daemon

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/online"
)

// TestSelfCheckCleanRun: a full register→tick→complete lifecycle under
// -selfcheck with every tick validated reports zero violations, and
// the metrics advertise the monitor.
func TestSelfCheckCleanRun(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 2, Policy: online.SEBF, SelfCheck: true, SelfCheckEvery: 1})
	reg := &coflowmodel.Registration{Weight: 2, Flows: []coflowmodel.Flow{
		{Src: 0, Dst: 0, Size: 3}, {Src: 0, Dst: 1, Size: 2}, {Src: 1, Dst: 1, Size: 1},
	}}
	if _, _, err := register(d, reg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := register(d, &coflowmodel.Registration{Flows: []coflowmodel.Flow{
		{Src: 1, Dst: 0, Size: 4},
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := d.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	m := d.Snapshot().Metrics
	if !m.SelfCheck {
		t.Error("metrics do not advertise self-check")
	}
	if m.SelfCheckViolations != 0 {
		t.Errorf("clean run reported %d violations (last: %s)", m.SelfCheckViolations, m.LastViolation)
	}
	if m.ActiveCoflows != 0 {
		t.Errorf("%d coflows still active after 12 slots", m.ActiveCoflows)
	}
}

// TestSelfCheckCancelledCoflow: cancelling mid-run must not confuse
// the monitor (its bookkeeping forgets the coflow like the scheduler
// does).
func TestSelfCheckCancelledCoflow(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 1, Policy: online.FIFO, SelfCheck: true, SelfCheckEvery: 1})
	id, _, err := register(d, &coflowmodel.Registration{Flows: []coflowmodel.Flow{
		{Src: 0, Dst: 0, Size: 10},
	}})
	if err != nil {
		t.Fatal(err)
	}
	id2, _, err := register(d, &coflowmodel.Registration{Flows: []coflowmodel.Flow{
		{Src: 0, Dst: 0, Size: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := d.Cancel(id); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := d.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	m := d.Snapshot().Metrics
	if m.SelfCheckViolations != 0 {
		t.Errorf("cancellation produced %d violations (last: %s)", m.SelfCheckViolations, m.LastViolation)
	}
	if cs := d.Snapshot().Coflows.Get(id2); cs.State != "completed" {
		t.Errorf("survivor coflow state %q, want completed", cs.State)
	}
}

// TestSelfCheckSampling: with SelfCheckEvery=3 only every third tick
// validates, but bookkeeping still tracks every slot, so the run
// stays clean end to end.
func TestSelfCheckSampling(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 2, Policy: online.WSPT, SelfCheck: true, SelfCheckEvery: 3})
	if _, _, err := register(d, &coflowmodel.Registration{Flows: []coflowmodel.Flow{
		{Src: 0, Dst: 1, Size: 7}, {Src: 1, Dst: 0, Size: 5},
	}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if m := d.Snapshot().Metrics; m.SelfCheckViolations != 0 {
		t.Errorf("sampled run reported %d violations (last: %s)", m.SelfCheckViolations, m.LastViolation)
	}
}

// TestSnapshotWriteIsAtomic: the final snapshot replaces any previous
// file contents completely (temp file + rename), and a failed write
// leaves no .tmp litter.
func TestSnapshotWriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	// Pre-existing garbage longer than the snapshot: a non-atomic
	// truncating write that died mid-encode would leave a hybrid.
	if err := os.WriteFile(path, []byte(strings.Repeat("x", 1<<16)), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{Ports: 2, Policy: online.SEBF, SnapshotPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := register(d, &coflowmodel.Registration{Flows: []coflowmodel.Flow{
		{Src: 0, Dst: 0, Size: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot is not clean JSON after overwrite: %v", err)
	}
	if snap.Slot != 1 || len(snap.Coflows.Map()) != 1 {
		t.Fatalf("snapshot content wrong: slot=%d coflows=%d", snap.Slot, len(snap.Coflows.Map()))
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

// TestSnapshotWriteFailureSurfaces: an unwritable snapshot path makes
// Close return the error instead of swallowing it.
func TestSnapshotWriteFailureSurfaces(t *testing.T) {
	d, err := New(Config{Ports: 2, Policy: online.SEBF,
		SnapshotPath: filepath.Join(t.TempDir(), "no", "such", "dir", "state.json")})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err == nil {
		t.Fatal("Close succeeded despite unwritable snapshot path")
	}
}
