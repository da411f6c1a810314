package shard

import (
	"errors"
	"testing"
	"time"

	"coflow/internal/coflowmodel"
	"coflow/internal/daemon"
	"coflow/internal/obs"
	"coflow/internal/online"
)

func newTestCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	if cfg.Fabric.Ports == 0 {
		cfg.Fabric.Ports = 2
	}
	if cfg.AggEvery == 0 {
		cfg.AggEvery = -1 // deterministic: every Metrics() recomputes
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func oneFlow() *coflowmodel.Registration {
	return &coflowmodel.Registration{
		Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}},
	}
}

// TestRegisterRoutesByHash: unpinned registrations land on the hash
// owner of their cluster-assigned ID, and Owner re-derives that fabric
// from the ID alone.
func TestRegisterRoutesByHash(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 4})
	for i := 0; i < 32; i++ {
		id, _, fabric, err := c.Register(oneFlow())
		if err != nil {
			t.Fatal(err)
		}
		if want := c.ring.Route(uint64(id)); fabric != want {
			t.Fatalf("coflow %d placed on fabric %d, hash owner is %d", id, fabric, want)
		}
		gotFabric, cs, ok := c.Owner(id)
		if !ok || gotFabric != fabric || cs.ID != id {
			t.Fatalf("Owner(%d) = (%d, %+v, %v), want fabric %d", id, gotFabric, cs, ok, fabric)
		}
	}
	m := c.Metrics()
	if m.Routed != 32 || m.Pinned != 0 {
		t.Fatalf("routed/pinned = %d/%d, want 32/0", m.Routed, m.Pinned)
	}
}

// TestRegisterPinned: an explicit fabric overrides the hash, and Owner
// still finds the coflow via the fallback scan.
func TestRegisterPinned(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 4})
	// The next assigned ID is 1; pin away from its hash owner so the
	// lookup must take the fallback path.
	pin := (c.ring.Route(1) + 1) % 4
	reg := oneFlow()
	reg.Fabric = &pin
	id, _, fabric, err := c.Register(reg)
	if err != nil {
		t.Fatal(err)
	}
	if fabric != pin {
		t.Fatalf("pinned to %d, placed on %d", pin, fabric)
	}
	gotFabric, cs, ok := c.Owner(id)
	if !ok || gotFabric != pin || cs.ID != id {
		t.Fatalf("Owner(%d) = (%d, %+v, %v), want pinned fabric %d", id, gotFabric, cs, ok, pin)
	}
	m := c.Metrics()
	if m.Pinned != 1 || m.FallbackScans == 0 {
		t.Fatalf("pinned=%d fallbackScans=%d, want 1 and >0", m.Pinned, m.FallbackScans)
	}
}

// TestRegisterUnknownFabric: pinning outside 0..N-1 is rejected with
// the daemon's sentinel and consumes no coflow slot on any fabric.
func TestRegisterUnknownFabric(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2})
	for _, pin := range []int{-1, 2, 7} {
		reg := oneFlow()
		reg.Fabric = &pin
		if _, _, _, err := c.Register(reg); !errors.Is(err, ErrUnknownFabric) {
			t.Fatalf("pin %d: err = %v, want ErrUnknownFabric", pin, err)
		}
	}
	if m := c.Metrics(); m.Registered != 0 {
		t.Fatalf("rejected registrations counted: %+v", m)
	}
}

// TestHeterogeneousPorts: per-fabric port overrides are validated at
// the owning fabric — a flow legal on the wide fabric is rejected by
// the narrow one.
func TestHeterogeneousPorts(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2, Ports: []int{2, 8}})
	wide, narrow := 1, 0
	reg := &coflowmodel.Registration{
		Flows:  []coflowmodel.Flow{{Src: 5, Dst: 5, Size: 1}},
		Fabric: &wide,
	}
	if _, _, _, err := c.Register(reg); err != nil {
		t.Fatalf("port 5 on 8-port fabric rejected: %v", err)
	}
	reg2 := &coflowmodel.Registration{
		Flows:  []coflowmodel.Flow{{Src: 5, Dst: 5, Size: 1}},
		Fabric: &narrow,
	}
	if _, _, _, err := c.Register(reg2); err == nil {
		t.Fatal("port 5 on 2-port fabric accepted")
	}
}

// TestTickCompletesAndAggregates: ticks drive every fabric, and the
// rollup conserves coflows (registered = completed + cancelled + active).
func TestTickCompletesAndAggregates(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 3})
	var cancelID int
	for i := 0; i < 12; i++ {
		id, _, _, err := c.Register(oneFlow())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			cancelID = id
		}
	}
	if err := c.Cancel(cancelID); err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(99999); !errors.Is(err, ErrUnknownCoflow) {
		t.Fatalf("cancelling unknown id: %v, want ErrUnknownCoflow", err)
	}
	for i := 0; i < 20; i++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		if c.Metrics().Active == 0 {
			break
		}
	}
	m := c.Metrics()
	if m.Registered != 12 || m.Cancelled != 1 || m.Completed != 11 || m.Active != 0 {
		t.Fatalf("rollup = %+v", m)
	}
	if m.Registered != m.Completed+m.Cancelled+int64(m.Active) {
		t.Fatalf("conservation violated: %+v", m)
	}
	if m.Fabrics != 3 || len(m.PerShard) != 3 {
		t.Fatalf("per-shard detail = %d fabrics, want 3", len(m.PerShard))
	}
	var perShardRegistered int64
	for i, s := range m.PerShard {
		if s.Fabric != i {
			t.Fatalf("PerShard[%d].Fabric = %d", i, s.Fabric)
		}
		perShardRegistered += s.Metrics.Registered
	}
	if perShardRegistered != m.Registered {
		t.Fatalf("per-shard sum %d != rollup %d", perShardRegistered, m.Registered)
	}
	if ing := m.IngestLatency; ing.Count != 12 || ing.Sum <= 0 || ing.Mean != ing.Sum/12 {
		t.Fatalf("ingest latency = %+v, want 12 registrations whose mean is sum/12", ing)
	}
}

// TestMetricsAmortized: within the AggEvery window every read shares
// one cached aggregate; a negative window disables the cache.
func TestMetricsAmortized(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 2, AggEvery: time.Hour})
	if _, _, _, err := c.Register(oneFlow()); err != nil {
		t.Fatal(err)
	}
	first := c.Metrics()
	if _, _, _, err := c.Register(oneFlow()); err != nil {
		t.Fatal(err)
	}
	if got := c.Metrics(); got != first {
		t.Fatal("second read inside the window recomputed")
	}

	fresh := newTestCluster(t, Config{Shards: 2, AggEvery: -1})
	a := fresh.Metrics()
	if _, _, _, err := fresh.Register(oneFlow()); err != nil {
		t.Fatal(err)
	}
	b := fresh.Metrics()
	if a == b || b.Registered != 1 {
		t.Fatalf("cache disabled but read stale: %+v", b)
	}
}

// TestCloseDrainsEveryFabric: Close is idempotent and every fabric
// refuses work afterwards.
func TestCloseDrainsEveryFabric(t *testing.T) {
	c := newTestCluster(t, Config{Shards: 3})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Register(oneFlow()); !errors.Is(err, daemon.ErrClosed) {
		t.Fatalf("register after close: %v, want ErrClosed", err)
	}
	if err := c.Tick(); !errors.Is(err, daemon.ErrClosed) {
		t.Fatalf("tick after close: %v, want ErrClosed", err)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Shards: -1, Fabric: daemon.Config{Ports: 2}}); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := New(Config{Shards: 2, Ports: []int{4}, Fabric: daemon.Config{Ports: 2}}); err == nil {
		t.Error("mismatched per-fabric port overrides accepted")
	}
	if _, err := New(Config{Shards: 2, Fabric: daemon.Config{Ports: 2, Policy: online.Policy(99)}}); err == nil {
		t.Error("bad fabric config accepted")
	}
}

// TestPerShardTickDoesNotAllocate extends the scheduler's zero-alloc
// gate to the sharded path: N per-fabric states with the daemon's obs
// wiring, stepped together behind ring routing, stay at 0 allocs/op in
// steady state. The cluster adds no per-tick allocation of its own —
// fan-out is a plain loop over fabrics.
func TestPerShardTickDoesNotAllocate(t *testing.T) {
	const shards, ports = 4, 50
	ring := NewRing(shards, 0)
	states := make([]*online.State, shards)
	for i := range states {
		s := online.NewState(ports)
		s.SetObs(online.NewObs(obs.NewRegistry()))
		for k := 1; k <= 40; k++ {
			flows := []coflowmodel.Flow{{Src: k % ports, Dst: (k * 7) % ports, Size: 1 << 40}}
			if _, err := s.Add(k, 1, 0, flows); err != nil {
				t.Fatal(err)
			}
		}
		states[i] = s
	}
	// Warm up: the first slots may grow the reusable buffers.
	slot := int64(0)
	for ; slot < 3; slot++ {
		for _, s := range states {
			s.Step(slot+1, online.SEBF)
		}
	}
	key := uint64(0)
	if avg := testing.AllocsPerRun(200, func() {
		slot++
		key++
		_ = ring.Route(key)
		for _, s := range states {
			s.Step(slot, online.SEBF)
		}
	}); avg != 0 {
		t.Errorf("sharded steady-state tick allocates %.1f times per slot, want 0", avg)
	}
}
