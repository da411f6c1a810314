package check

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"coflow/internal/coflowmodel"
	"coflow/internal/matrix"
	"coflow/internal/online"
)

// Op is one recorded input to a shadowed scheduler, in the order it
// was applied. The op log is the reproducer format: replaying it
// through a fresh fast/reference pair deterministically reproduces a
// divergence.
type Op struct {
	// Kind is "add", "remove", "step", "fail" or "recover".
	Kind string `json:"kind"`
	// Key identifies the coflow for add/remove.
	Key int `json:"key,omitempty"`
	// Weight and Release parameterize an add.
	Weight  float64            `json:"weight,omitempty"`
	Release int64              `json:"release,omitempty"`
	Flows   []coflowmodel.Flow `json:"flows,omitempty"`
	// Slot and Policy parameterize a step.
	Slot   int64 `json:"slot,omitempty"`
	Policy int   `json:"policy,omitempty"`
	// Port names the port of a fail or recover.
	Port int `json:"port,omitempty"`
}

// Divergence reports the fast path and the reference disagreeing on
// identical inputs — by construction a bug in one of them.
type Divergence struct {
	// Slot is the slot at which outputs (or state) first diverged.
	Slot int64 `json:"slot"`
	// Reason describes the first observed difference.
	Reason string `json:"reason"`
	// Ops is the minimized input history reproducing the divergence.
	Ops []Op `json:"ops"`
	// Instance is the op history rendered as an instance, when the
	// history is instance-shaped (every add uses a distinct key and no
	// port fails).
	Instance *coflowmodel.Instance `json:"instance,omitempty"`
	// ReproPath is the reproducer file written to disk ("" when no
	// dump directory was configured or the write failed).
	ReproPath string `json:"-"`
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("check: fast path diverged from reference at slot %d: %s", d.Slot, d.Reason)
}

// ShadowConfig tunes the oracle.
type ShadowConfig struct {
	// StateEvery runs the full remaining-demand state diff every k-th
	// step (0 or 1 = every step). Step outputs are always diffed; the
	// state diff is the expensive part on large live sets.
	StateEvery int
	// Dir, when non-empty, is where divergence reproducers are dumped
	// as JSON files.
	Dir string
	// NoMinimize skips reproducer minimization (which replays the op
	// log many times) and dumps the raw history instead.
	NoMinimize bool
}

// Shadow drives the optimized online.State and the dense Reference in
// lockstep and diffs them: a differential oracle over the sparse slot
// pipeline's fast path. All mutations must go through the Shadow.
//
// After the first divergence the oracle latches (Diverged returns it,
// further steps are applied to the fast path only): once the two
// implementations fork, further diffs are noise.
type Shadow struct {
	// State is the fast implementation under test. Callers may read
	// from it, but must mutate only through the Shadow.
	State *online.State

	ref   *Reference
	cfg   ShadowConfig
	ports int
	ops   []Op
	steps int64
	div   *Divergence
	dumps int
}

// NewShadow creates a shadowed scheduler pair for an m-port switch.
func NewShadow(ports int, cfg ShadowConfig) *Shadow {
	if cfg.StateEvery <= 0 {
		cfg.StateEvery = 1
	}
	return &Shadow{
		State: online.NewState(ports),
		ref:   NewReference(ports),
		cfg:   cfg,
		ports: ports,
	}
}

// Add registers a coflow with both implementations. The two must
// agree on acceptance; disagreement is itself a divergence.
func (sh *Shadow) Add(key int, weight float64, release int64, flows []coflowmodel.Flow) (int64, error) {
	remaining, err := sh.State.Add(key, weight, release, flows)
	if err != nil {
		return 0, err
	}
	if sh.div == nil {
		refRemaining, refErr := sh.ref.Add(key, weight, release, flows)
		if refErr != nil || refRemaining != remaining {
			sh.fail(-1, fmt.Sprintf("Add(%d): fast accepted %d units, reference said (%d, %v)",
				key, remaining, refRemaining, refErr))
		}
	}
	sh.ops = append(sh.ops, Op{Kind: "add", Key: key, Weight: weight, Release: release,
		Flows: append([]coflowmodel.Flow(nil), flows...)})
	return remaining, nil
}

// Remove cancels a coflow in both implementations.
func (sh *Shadow) Remove(key int) bool {
	ok := sh.State.Remove(key)
	if sh.div == nil {
		if refOK := sh.ref.Remove(key); refOK != ok {
			sh.fail(-1, fmt.Sprintf("Remove(%d): fast %v, reference %v", key, ok, refOK))
		}
	}
	sh.ops = append(sh.ops, Op{Kind: "remove", Key: key})
	return ok
}

// FailPort takes port p offline in both implementations. The two must
// agree on acceptance; disagreement is itself a divergence.
func (sh *Shadow) FailPort(p int) error {
	return sh.portOp("fail", p, sh.State.FailPort, sh.ref.FailPort)
}

// RecoverPort brings port p back online in both implementations.
func (sh *Shadow) RecoverPort(p int) error {
	return sh.portOp("recover", p, sh.State.RecoverPort, sh.ref.RecoverPort)
}

// portOp applies a fail or recover to both sides and records it.
func (sh *Shadow) portOp(kind string, p int, fast, ref func(int) error) error {
	if err := fast(p); err != nil {
		return err
	}
	if sh.div == nil {
		if refErr := ref(p); refErr != nil {
			sh.fail(-1, fmt.Sprintf("%s(%d): fast accepted, reference said %v", kind, p, refErr))
		}
	}
	sh.ops = append(sh.ops, Op{Kind: kind, Port: p})
	return nil
}

// Step advances both implementations one slot and diffs the results.
// The fast path's StepResult is returned either way, so a Shadow is a
// drop-in replacement for the State in a scheduling loop. The result
// aliases the fast State's scratch, like State.Step's.
//
//coflow:pooled
func (sh *Shadow) Step(slot int64, policy online.Policy) (online.StepResult, *Divergence) {
	res := sh.State.Step(slot, policy)
	sh.ops = append(sh.ops, Op{Kind: "step", Slot: slot, Policy: int(policy)})
	if sh.div != nil {
		return res, sh.div
	}
	refRes := sh.ref.Step(slot, policy)
	if reason := diffStep(res, refRes); reason != "" {
		sh.fail(slot, reason)
		return res, sh.div
	}
	sh.steps++
	if sh.steps%int64(sh.cfg.StateEvery) == 0 {
		if reason := diffState(sh.State, sh.ref); reason != "" {
			sh.fail(slot, reason)
		}
	}
	return res, sh.div
}

// fail latches the divergence, minimizes the reproducer and dumps it.
func (sh *Shadow) fail(slot int64, reason string) {
	ops := append([]Op(nil), sh.ops...)
	div := &Divergence{Slot: slot, Reason: reason, Ops: ops}
	if !sh.cfg.NoMinimize {
		if min, minDiv := Minimize(sh.ports, ops); minDiv != nil {
			div.Ops = min
			div.Slot = minDiv.Slot
			div.Reason = minDiv.Reason
		}
	}
	div.Instance = opsInstance(sh.ports, div.Ops)
	if sh.cfg.Dir != "" {
		path := filepath.Join(sh.cfg.Dir, fmt.Sprintf("divergence-%d.json", sh.dumps))
		sh.dumps++
		if err := dumpReproducer(path, sh.ports, div); err == nil {
			div.ReproPath = path
		}
	}
	sh.div = div
}

// diffStep compares one slot's outputs. Both implementations are
// fully deterministic, so the served and completed SEQUENCES (not
// just sets) must agree.
func diffStep(fast, ref online.StepResult) string {
	if fast.Slot != ref.Slot {
		return fmt.Sprintf("slot %d vs %d", fast.Slot, ref.Slot)
	}
	if fast.Active != ref.Active {
		return fmt.Sprintf("active count %d vs reference %d", fast.Active, ref.Active)
	}
	if len(fast.Served) != len(ref.Served) {
		return fmt.Sprintf("served %d units, reference served %d (fast %v, reference %v)",
			len(fast.Served), len(ref.Served), fast.Served, ref.Served)
	}
	for i := range fast.Served {
		if fast.Served[i] != ref.Served[i] {
			return fmt.Sprintf("served[%d] = %+v, reference %+v", i, fast.Served[i], ref.Served[i])
		}
	}
	if len(fast.Completed) != len(ref.Completed) {
		return fmt.Sprintf("completed %v, reference completed %v", fast.Completed, ref.Completed)
	}
	for i := range fast.Completed {
		if fast.Completed[i] != ref.Completed[i] {
			return fmt.Sprintf("completed[%d] = %d, reference %d", i, fast.Completed[i], ref.Completed[i])
		}
	}
	return ""
}

// diffState compares the full live state: the key sets and every
// coflow's remaining per-pair demand.
func diffState(fast *online.State, ref *Reference) string {
	fastKeys := fast.Keys(nil)
	refKeys := ref.Keys()
	if len(fastKeys) != len(refKeys) {
		return fmt.Sprintf("live keys %v, reference %v", fastKeys, refKeys)
	}
	for i := range fastKeys {
		if fastKeys[i] != refKeys[i] {
			return fmt.Sprintf("live keys %v, reference %v", fastKeys, refKeys)
		}
	}
	for _, key := range fastKeys {
		fd := fast.Demand(key)
		rd := ref.Demand(key)
		if reason := diffDemand(key, fd, rd); reason != "" {
			return reason
		}
		ft, _ := fast.Remaining(key)
		rt, _ := ref.Remaining(key)
		if ft != rt {
			return fmt.Sprintf("coflow %d remaining total %d, reference %d (incremental sum corrupt)", key, ft, rt)
		}
	}
	return ""
}

// diffDemand compares two positive-entry lists in (row, col) order.
func diffDemand(key int, fast, ref []matrix.SparseEntry) string {
	if len(fast) != len(ref) {
		return fmt.Sprintf("coflow %d has %d live pairs, reference %d", key, len(fast), len(ref))
	}
	for i := range fast {
		if fast[i] != ref[i] {
			return fmt.Sprintf("coflow %d pair %d: fast %+v, reference %+v", key, i, fast[i], ref[i])
		}
	}
	return ""
}

// Replay runs an op log from scratch through a fresh fast/reference
// pair, diffing outputs and full state after every step, and returns
// the first divergence (nil if the log replays clean). Invalid ops
// (e.g. an add both sides reject) are skipped on both sides.
func Replay(ports int, ops []Op) *Divergence {
	fast := online.NewState(ports)
	ref := NewReference(ports)
	for _, op := range ops {
		switch op.Kind {
		case "add":
			fastRem, fastErr := fast.Add(op.Key, op.Weight, op.Release, op.Flows)
			refRem, refErr := ref.Add(op.Key, op.Weight, op.Release, op.Flows)
			if (fastErr == nil) != (refErr == nil) || fastRem != refRem {
				return &Divergence{Slot: -1, Ops: ops,
					Reason: fmt.Sprintf("Add(%d): fast (%d, %v), reference (%d, %v)", op.Key, fastRem, fastErr, refRem, refErr)}
			}
		case "remove":
			if fastOK, refOK := fast.Remove(op.Key), ref.Remove(op.Key); fastOK != refOK {
				return &Divergence{Slot: -1, Ops: ops,
					Reason: fmt.Sprintf("Remove(%d): fast %v, reference %v", op.Key, fastOK, refOK)}
			}
		case "fail", "recover":
			fastOp, refOp := fast.FailPort, ref.FailPort
			if op.Kind == "recover" {
				fastOp, refOp = fast.RecoverPort, ref.RecoverPort
			}
			fastErr, refErr := fastOp(op.Port), refOp(op.Port)
			if (fastErr == nil) != (refErr == nil) {
				return &Divergence{Slot: -1, Ops: ops,
					Reason: fmt.Sprintf("%s(%d): fast %v, reference %v", op.Kind, op.Port, fastErr, refErr)}
			}
		case "step":
			res := fast.Step(op.Slot, online.Policy(op.Policy))
			refRes := ref.Step(op.Slot, online.Policy(op.Policy))
			if reason := diffStep(res, refRes); reason != "" {
				return &Divergence{Slot: op.Slot, Reason: reason, Ops: ops}
			}
			if reason := diffState(fast, ref); reason != "" {
				return &Divergence{Slot: op.Slot, Reason: reason, Ops: ops}
			}
		}
	}
	return nil
}

// Minimize shrinks an op log while preserving some divergence under
// Replay: whole coflows are dropped greedily, then individual flows,
// then the tail after the first divergent step. Port failures and
// recoveries name no coflow and are kept. It returns the
// minimized log and its divergence, or (ops, nil) if the log does not
// reproduce any divergence (a non-deterministic or external bug).
func Minimize(ports int, ops []Op) ([]Op, *Divergence) {
	div := Replay(ports, ops)
	if div == nil {
		return ops, nil
	}
	// Drop whole coflows (the add and every op naming its key).
	const maxCoflowDrops = 512
	keys := addKeys(ops)
	if len(keys) <= maxCoflowDrops {
		for _, key := range keys {
			cand := opsWithoutKey(ops, key)
			if d := Replay(ports, cand); d != nil {
				ops, div = cand, d
			}
		}
	}
	// Drop individual flows within the surviving adds.
	for i := 0; i < len(ops); i++ {
		if ops[i].Kind != "add" {
			continue
		}
		for j := 0; j < len(ops[i].Flows); {
			cand := cloneOps(ops)
			cand[i].Flows = append(append([]coflowmodel.Flow(nil), cand[i].Flows[:j]...), cand[i].Flows[j+1:]...)
			if d := Replay(ports, cand); d != nil {
				ops, div = cand, d
			} else {
				j++
			}
		}
	}
	// Trim everything after the first divergent step.
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i].Kind == "step" && ops[i].Slot == div.Slot {
			cand := ops[:i+1]
			if d := Replay(ports, cand); d != nil {
				ops, div = cand, d
			}
			break
		}
	}
	div.Ops = ops
	return ops, div
}

func addKeys(ops []Op) []int {
	var keys []int
	for _, op := range ops {
		if op.Kind == "add" {
			keys = append(keys, op.Key)
		}
	}
	return keys
}

func opsWithoutKey(ops []Op, key int) []Op {
	out := make([]Op, 0, len(ops))
	for _, op := range ops {
		if (op.Kind == "add" || op.Kind == "remove") && op.Key == key {
			continue
		}
		out = append(out, op)
	}
	return out
}

func cloneOps(ops []Op) []Op {
	out := make([]Op, len(ops))
	copy(out, ops)
	return out
}

// opsInstance renders an op log as an Instance when it is
// instance-shaped: all adds use distinct keys and no port fails (an
// Instance has no port failures). Returns nil otherwise.
func opsInstance(ports int, ops []Op) *coflowmodel.Instance {
	ins := &coflowmodel.Instance{Ports: ports}
	seen := map[int]bool{}
	for _, op := range ops {
		if op.Kind == "fail" || op.Kind == "recover" {
			return nil
		}
		if op.Kind != "add" {
			continue
		}
		if seen[op.Key] {
			return nil
		}
		seen[op.Key] = true
		ins.Coflows = append(ins.Coflows, coflowmodel.Coflow{
			ID: op.Key, Weight: op.Weight, Release: op.Release,
			Flows: append([]coflowmodel.Flow(nil), op.Flows...),
		})
	}
	if ins.Validate() != nil {
		return nil
	}
	return ins
}

// reproducer is the on-disk format of a dumped divergence.
type reproducer struct {
	Ports      int         `json:"ports"`
	Divergence *Divergence `json:"divergence"`
}

func dumpReproducer(path string, ports int, div *Divergence) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reproducer{Ports: ports, Divergence: div}); err != nil {
		// Already failing: the encode error wins, the temp file is junk.
		_ = f.Close()
		_ = os.Remove(tmp) // best effort: the temp file is junk
		return err
	}
	if err := f.Close(); err != nil {
		// Already failing: best-effort removal of the unusable temp file.
		_ = os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
