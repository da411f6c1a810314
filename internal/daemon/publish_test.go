package daemon

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/online"
	"coflow/internal/stats"
)

// backlog feeds a manual-time daemon seeded small coflows (1–4 flows
// of 1–8 units), so a test or benchmark can hold a standing backlog
// under Tick().
type backlog struct {
	tb  testing.TB
	d   *Daemon
	rng *rand.Rand
}

func newBacklog(tb testing.TB, seed int64, cfg Config) *backlog {
	tb.Helper()
	d, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close() })
	return &backlog{tb: tb, d: d, rng: rand.New(rand.NewSource(seed))}
}

func (b *backlog) register(n int) {
	b.tb.Helper()
	m := b.d.Ports()
	for ; n > 0; n-- {
		flows := make([]coflowmodel.Flow, 1+b.rng.Intn(4))
		for i := range flows {
			flows[i] = coflowmodel.Flow{Src: b.rng.Intn(m), Dst: b.rng.Intn(m), Size: 1 + b.rng.Int63n(8)}
		}
		reg := &coflowmodel.Registration{Weight: 1 + float64(b.rng.Intn(5)), Flows: flows}
		if _, _, err := register(b.d, reg); err != nil {
			b.tb.Fatal(err)
		}
	}
}

// tick advances one slot and, when fewer than low coflows are live,
// registers another hundred.
func (b *backlog) tick(low int) {
	b.tb.Helper()
	if err := b.d.Tick(); err != nil {
		b.tb.Fatal(err)
	}
	if b.d.Snapshot().Metrics.ActiveCoflows < low {
		b.register(100)
	}
}

// TestPublishedWindows pins the daemon's use of stats.Rolling from the
// outside, under manual time.
func TestPublishedWindows(t *testing.T) {
	// The published slowdown / wait / service summaries are exactly
	// stats.Summarize over the values the published coflow table implies.
	// The window holds every completion, so arrival order cannot matter.
	t.Run("summaries equal Summarize of the coflow table", func(t *testing.T) {
		b := newBacklog(t, 12, Config{Ports: 8, Policy: online.SEBF, Window: 512})
		b.register(300)
		for b.d.Snapshot().Metrics.ActiveCoflows > 0 {
			b.tick(0)
		}
		snap := b.d.Snapshot()
		var slowdowns, waits, services []float64
		snap.Coflows.Range(func(_ int, cs *CoflowStatus) bool {
			if cs.State != "completed" {
				t.Fatalf("coflow %d is %s after drain", cs.ID, cs.State)
			}
			slowdowns = append(slowdowns, float64(cs.Completed)/float64(cs.Release+cs.Load))
			waits = append(waits, float64(cs.Completed-cs.Release-cs.Load))
			services = append(services, float64(cs.Load))
			return true
		})
		if len(slowdowns) != 300 {
			t.Fatalf("%d coflows published, want 300", len(slowdowns))
		}
		m := snap.Metrics
		for _, c := range []struct {
			name      string
			got, want stats.Summary
		}{
			{"slowdown", m.Slowdown, stats.Summarize(slowdowns)},
			{"wait", m.Wait, stats.Summarize(waits)},
			{"service", m.Service, stats.Summarize(services)},
		} {
			if c.got != c.want {
				t.Errorf("%s = %+v, Summarize of the table = %+v", c.name, c.got, c.want)
			}
		}
		if want := min(int(m.Ticks), 512); m.TickLatency.Count != want {
			t.Errorf("tick latency window holds %d values after %d ticks, want %d", m.TickLatency.Count, m.Ticks, want)
		}
	})

	// Publishing a window costs no memory, so what a tick allocates
	// under the same standing backlog does not depend on -window.
	t.Run("allocation per tick does not scale with the window", func(t *testing.T) {
		perTick := func(window int) float64 {
			b := newBacklog(t, 7, Config{Ports: 16, Policy: online.SEBF, Window: window})
			b.register(400)
			for i := 0; i < 300; i++ { // fill the small window, part-fill the large one
				b.tick(300)
			}
			const ticks = 400
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < ticks; i++ {
				b.tick(300)
			}
			runtime.ReadMemStats(&after)
			if c := b.d.Snapshot().Metrics.Completed; c < 700 {
				t.Fatalf("only %d completions: the windows saw too little", c)
			}
			return float64(after.TotalAlloc-before.TotalAlloc) / ticks
		}
		small, large := perTick(64), perTick(4096)
		if diff := large - small; diff > 0.05*small || -diff > 0.05*small {
			t.Fatalf("%.0f B/tick at Window 64, %.0f B/tick at Window 4096: differ by more than 5%%", small, large)
		}
	})
}

// TestPublishedScheduleIsImmutable pins the copy the loop makes of a
// slot's served matching: StepResult.Served aliases the State's
// scratch, which the next Step overwrites, so a Schedule that was
// published as-is would change under its readers. Each tick here
// completes a one-unit coflow on the same port pair, so consecutive
// matchings differ in their coflow key.
func TestPublishedScheduleIsImmutable(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 2, Policy: online.FIFO})
	for i := 0; i < 4; i++ {
		if _, _, err := register(d, &coflowmodel.Registration{
			Flows: []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 1}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	want := slices.Clone(snap.Schedule)
	if len(want) == 0 {
		t.Fatal("empty schedule after a tick over live demand")
	}
	for i := 0; i < 3; i++ {
		if err := d.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(snap.Schedule, want) {
		t.Fatalf("slot %d's published schedule changed to %v after later ticks, was %v", snap.Slot, snap.Schedule, want)
	}
}

// A tick that serves one coflow on several pairs publishes one status
// for it: the view's delta grows by one entry, not one per pair, on
// every tick that serves it, the one that completes it included. A zero-demand registration, which completes at once,
// publishes one status too.
func TestTickPublishesOneStatusPerServedCoflow(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 3, Policy: online.SEBF})
	id, _, err := register(d, &coflowmodel.Registration{Flows: []coflowmodel.Flow{
		{Src: 0, Dst: 1, Size: 3}, {Src: 1, Dst: 2, Size: 3}, {Src: 2, Dst: 0, Size: 3},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// The last tick completes the coflow it serves: still one status.
	for remaining := int64(6); remaining >= 0; remaining -= 3 {
		before := d.Snapshot().Coflows.n
		if err := d.Tick(); err != nil {
			t.Fatal(err)
		}
		snap := d.Snapshot()
		if len(snap.Schedule) != 3 {
			t.Fatalf("slot %d served %v, want the coflow on its 3 pairs", snap.Slot, snap.Schedule)
		}
		if grew := snap.Coflows.n - before; grew != 1 {
			t.Fatalf("slot %d: the published delta grew by %d entries, want 1", snap.Slot, grew)
		}
		if cs := snap.Coflows.Get(id); cs.Remaining != remaining {
			t.Fatalf("slot %d: published remaining %d, want %d", snap.Slot, cs.Remaining, remaining)
		}
	}
	if cs := d.Snapshot().Coflows.Get(id); cs.State != "completed" {
		t.Fatalf("after the last tick: %+v, want completed", cs)
	}
	// A zero-demand registration completes as it registers: one status.
	before := d.Snapshot().Coflows.n
	zero, _, err := register(d, &coflowmodel.Registration{})
	if err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	if grew := snap.Coflows.n - before; grew != 1 {
		t.Fatalf("zero-demand registration: the published delta grew by %d entries, want 1", grew)
	}
	if cs := snap.Coflows.Get(zero); cs.State != "completed" {
		t.Fatalf("zero-demand registration published %+v, want completed", cs)
	}
}

// BenchmarkDaemonTick is one Tick() of a 64-port fabric holding a
// standing backlog of 300–400 coflows, with all four rolling windows
// full (default Window) and the planner off: Step plus publication.
func BenchmarkDaemonTick(b *testing.B) {
	bl := newBacklog(b, 1, Config{Ports: 64, Policy: online.SEBF})
	bl.register(400)
	for m := bl.d.Snapshot().Metrics; m.Ticks < 1024 || m.Completed < 1024; m = bl.d.Snapshot().Metrics {
		bl.tick(300)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bl.d.Tick(); err != nil {
			b.Fatal(err)
		}
		if bl.d.Snapshot().Metrics.ActiveCoflows < 300 {
			b.StopTimer()
			bl.register(100)
			b.StartTimer()
		}
	}
}
