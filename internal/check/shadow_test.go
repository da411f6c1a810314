package check

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/online"
	"coflow/internal/trace"
)

// driveShadow runs a full instance through a Shadow under one policy,
// failing on the first divergence. Returns the ops for replay tests.
func driveShadow(t *testing.T, sh *Shadow, ins *coflowmodel.Instance, policy online.Policy, removeKey int) {
	t.Helper()
	for k := range ins.Coflows {
		c := &ins.Coflows[k]
		if _, err := sh.Add(k, c.Weight, c.Release, c.Flows); err != nil {
			t.Fatal(err)
		}
	}
	var tt int64
	horizon := ins.Horizon() + 1
	removed := false
	for sh.State.Len() > 0 && tt <= horizon {
		res, div := sh.Step(tt+1, policy)
		if div != nil {
			t.Fatalf("%v: divergence: %v", policy, div)
		}
		if res.Active == 0 {
			next := sh.State.NextRelease(tt)
			if next < 0 {
				t.Fatalf("%v: stalled with %d live coflows and no pending release", policy, sh.State.Len())
			}
			tt = next
			continue
		}
		tt = res.Slot
		if !removed && removeKey >= 0 && tt > 3 {
			sh.Remove(removeKey)
			removed = true
		}
	}
	if sh.State.Len() > 0 {
		t.Fatalf("%v: did not finish within horizon", policy)
	}
}

// TestShadowAgreesOnTraces: the fast path and the dense reference
// stay in lockstep across policies on generated workloads with
// arrivals, including a mid-run cancellation.
func TestShadowAgreesOnTraces(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		ins := trace.MustGenerate(trace.Config{
			Ports: 5, NumCoflows: 12, Seed: seed,
			NarrowFraction: 0.5, WideFraction: 0.2,
			MaxFlowSize: 8, ParetoAlpha: 1.3, MeanInterarrival: 2,
		})
		for _, policy := range []online.Policy{online.FIFO, online.SEBF, online.WSPT} {
			sh := NewShadow(ins.Ports, ShadowConfig{})
			removeKey := -1
			if seed%2 == 0 {
				removeKey = len(ins.Coflows) / 2
			}
			driveShadow(t, sh, ins, policy, removeKey)
			if div := Replay(ins.Ports, sh.ops); div != nil {
				t.Fatalf("%v seed %d: clean run's op log replays divergent: %v", policy, seed, div)
			}
		}
	}
}

// TestShadowDetectsDesyncState: mutating the fast path behind the
// Shadow's back (here: an un-shadowed Step) is caught by the state
// diff, and a reproducer lands on disk.
func TestShadowDetectsDesyncState(t *testing.T) {
	dir := t.TempDir()
	sh := NewShadow(2, ShadowConfig{Dir: dir})
	if _, err := sh.Add(0, 1, 0, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 5}}); err != nil {
		t.Fatal(err)
	}
	sh.State.Step(1, online.FIFO) // rogue: reference did not see this slot
	_, div := sh.Step(2, online.FIFO)
	if div == nil {
		t.Fatal("desynced state not detected")
	}
	if sh.div != div {
		t.Fatal("Shadow does not latch the divergence")
	}
	if div.ReproPath == "" {
		t.Fatal("no reproducer dumped")
	}
	raw, err := os.ReadFile(div.ReproPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Ports      int         `json:"ports"`
		Divergence *Divergence `json:"divergence"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("reproducer is not valid JSON: %v", err)
	}
	if rep.Ports != 2 || rep.Divergence == nil || len(rep.Divergence.Ops) == 0 {
		t.Fatalf("reproducer incomplete: %+v", rep)
	}
	if filepath.Dir(div.ReproPath) != dir {
		t.Fatalf("reproducer written to %s, want %s", div.ReproPath, dir)
	}

	// The latch: further steps keep returning the same divergence and
	// do not touch the reference.
	refLen := len(sh.ref.coflows)
	if _, div2 := sh.Step(3, online.FIFO); div2 != div {
		t.Fatal("latched divergence not returned on later steps")
	}
	if len(sh.ref.coflows) != refLen {
		t.Fatal("reference advanced after divergence latch")
	}
}

// TestReproducerKeepsPortOps: port failures and recoveries (port 0,
// the JSON zero value, included) survive the reproducer's round trip,
// and the decoded log replays exactly as the recorded one does. The
// history renders no Instance, and dropping coflow 0 while minimizing
// keeps the port ops even though their Key reads 0.
func TestReproducerKeepsPortOps(t *testing.T) {
	sh := NewShadow(2, ShadowConfig{Dir: t.TempDir()})
	// Coflows 0 and 1 contend for port 1 while port 0 is down; the
	// masked SEBF key puts coflow 1 first.
	if _, err := sh.Add(0, 1, 0, []coflowmodel.Flow{{Src: 1, Dst: 1, Size: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Add(1, 4, 0, []coflowmodel.Flow{{Src: 1, Dst: 1, Size: 2}, {Src: 0, Dst: 1, Size: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := sh.FailPort(0); err != nil {
		t.Fatal(err)
	}
	// Where the masked key is right, slot 1 agrees and a rogue step
	// forces the divergence; where it is wrong, slot 1 diverges and the
	// replays below must both reproduce it.
	if _, div := sh.Step(1, online.SEBF); div == nil {
		if err := sh.RecoverPort(0); err != nil {
			t.Fatal(err)
		}
		sh.State.Step(2, online.SEBF) // rogue: the reference misses this slot
		sh.Step(3, online.SEBF)
	}
	div := sh.div
	if div == nil || div.ReproPath == "" {
		t.Fatalf("no reproducer dumped: %+v", div)
	}
	raw, err := os.ReadFile(div.ReproPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep reproducer
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Divergence.Ops, div.Ops) {
		t.Fatalf("ops decode as %+v, want %+v", rep.Divergence.Ops, div.Ops)
	}
	ports := 0
	for _, op := range rep.Divergence.Ops {
		if (op.Kind == "fail" || op.Kind == "recover") && op.Port == 0 {
			ports++
		}
	}
	if ports == 0 || rep.Divergence.Instance != nil {
		t.Fatalf("reproducer has %d port-0 ops and instance %+v", ports, rep.Divergence.Instance)
	}
	got, want := Replay(rep.Ports, rep.Divergence.Ops), Replay(2, div.Ops)
	if (got == nil) != (want == nil) || got != nil && (got.Slot != want.Slot || got.Reason != want.Reason) {
		t.Fatalf("decoded log replays as %v, recorded log as %v", got, want)
	}
	kept := 0
	for _, op := range opsWithoutKey(rep.Divergence.Ops, 0) {
		if op.Kind == "fail" || op.Kind == "recover" {
			kept++
		}
	}
	if kept != ports {
		t.Fatalf("dropping coflow 0 left %d of %d port ops", kept, ports)
	}
}

// TestShadowDetectsDesyncCompletion: a rogue step that drains a
// coflow makes the next shadowed step disagree on the active count.
func TestShadowDetectsDesyncCompletion(t *testing.T) {
	sh := NewShadow(2, ShadowConfig{NoMinimize: true})
	if _, err := sh.Add(0, 1, 0, []coflowmodel.Flow{{Src: 1, Dst: 1, Size: 1}}); err != nil {
		t.Fatal(err)
	}
	sh.State.Step(1, online.SEBF) // drains and completes coflow 0 fast-side only
	_, div := sh.Step(2, online.SEBF)
	if div == nil {
		t.Fatal("completion desync not detected")
	}
}

// TestShadowAddRejectsMirror: inputs the fast path rejects never reach
// the reference and produce no divergence.
func TestShadowAddRejectsMirror(t *testing.T) {
	sh := NewShadow(2, ShadowConfig{})
	if _, err := sh.Add(0, -1, 0, nil); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := sh.Add(0, 1, 0, []coflowmodel.Flow{{Src: 9, Dst: 0, Size: 1}}); err == nil {
		t.Fatal("out-of-range flow accepted")
	}
	if _, err := sh.Add(0, 1, 0, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Add(0, 1, 0, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}}); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if sh.div != nil {
		t.Fatalf("rejected adds diverged: %v", sh.div)
	}
	if !sh.Remove(0) || sh.Remove(7) {
		t.Fatal("Remove mirror broken")
	}
	if sh.div != nil {
		t.Fatalf("removes diverged: %v", sh.div)
	}
}

// TestMinimizeCleanLog: a log that replays clean is returned as-is
// with a nil divergence.
func TestMinimizeCleanLog(t *testing.T) {
	ops := []Op{
		{Kind: "add", Key: 0, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 2}}},
		{Kind: "step", Slot: 1, Policy: int(online.SEBF)},
		{Kind: "step", Slot: 2, Policy: int(online.SEBF)},
	}
	got, div := Minimize(2, ops)
	if div != nil {
		t.Fatalf("clean log diverged: %v", div)
	}
	if len(got) != len(ops) {
		t.Fatalf("clean log was modified: %v", got)
	}
}

// TestOpsInstance: an instance-shaped op log renders; one with a
// reused key does not.
func TestOpsInstance(t *testing.T) {
	ops := []Op{
		{Kind: "add", Key: 0, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 2}}},
		{Kind: "step", Slot: 1},
		{Kind: "add", Key: 1, Weight: 2, Release: 3, Flows: []coflowmodel.Flow{{Src: 1, Dst: 0, Size: 1}}},
	}
	ins := opsInstance(2, ops)
	if ins == nil || len(ins.Coflows) != 2 || ins.Coflows[1].Release != 3 {
		t.Fatalf("opsInstance = %+v", ins)
	}
	dup := append(ops, Op{Kind: "add", Key: 0, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}}})
	if opsInstance(2, dup) != nil {
		t.Fatal("reused key rendered as instance")
	}
}

// TestStateEverySampling: with StateEvery=1000 the state diff never
// runs inside a short run, so a silent state desync goes unnoticed
// until a step OUTPUT differs — documenting the sampling trade-off.
func TestStateEverySampling(t *testing.T) {
	sh := NewShadow(2, ShadowConfig{StateEvery: 1000, NoMinimize: true})
	if _, err := sh.Add(0, 1, 0, []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 10}}); err != nil {
		t.Fatal(err)
	}
	sh.State.Step(1, online.FIFO) // rogue: state now differs by one unit
	if _, div := sh.Step(2, online.FIFO); div != nil {
		t.Fatalf("state diff ran despite StateEvery=1000: %v", div)
	}
}
