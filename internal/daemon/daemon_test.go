package daemon

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coflow/internal/coflowmodel"
	"coflow/internal/online"
)

func newTestDaemon(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	if cfg.Ports == 0 {
		cfg.Ports = 2
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// testIDs numbers the coflows the tests register: a fabric hands out no
// IDs itself, so register plays the cluster's part with one sequence
// for every daemon of the test binary.
var testIDs atomic.Int64

// register submits reg under the next test ID.
func register(d *Daemon, reg *coflowmodel.Registration) (id int, release int64, err error) {
	id = int(testIDs.Add(1))
	release, err = d.RegisterWithID(id, reg)
	return id, release, err
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{Ports: 0}); err == nil {
		t.Error("ports=0 accepted")
	}
	if _, err := New(Config{Ports: 2, Policy: online.Policy(99)}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRegisterTickComplete(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 2, Policy: online.SEBF})
	id, release, err := register(d, &coflowmodel.Registration{
		Weight: 2,
		Flows: []coflowmodel.Flow{
			{Src: 0, Dst: 0, Size: 1}, {Src: 0, Dst: 1, Size: 2},
			{Src: 1, Dst: 0, Size: 2}, {Src: 1, Dst: 1, Size: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if release != 0 {
		t.Fatalf("release = %d, want 0", release)
	}
	cs := d.Snapshot().Coflows.Get(id)
	if cs == nil || cs.State != "active" || cs.Remaining != 6 || cs.Load != 3 {
		t.Fatalf("registered status = %+v", cs)
	}
	// ρ = 3; greedy clears within 2ρ−1 = 5 slots.
	var completedAt int64
	for slot := 1; slot <= 5; slot++ {
		if err := d.Tick(); err != nil {
			t.Fatal(err)
		}
		if cs := d.Snapshot().Coflows.Get(id); cs.State == "completed" {
			completedAt = cs.Completed
			break
		}
	}
	if completedAt < 3 || completedAt > 5 {
		t.Fatalf("completion slot = %d, want in [3, 5]", completedAt)
	}
	m := d.Snapshot().Metrics
	if m.Completed != 1 || m.ActiveCoflows != 0 {
		t.Fatalf("metrics after completion: %+v", m)
	}
	if want := 2 * float64(completedAt); m.TotalWeighted != want {
		t.Fatalf("TotalWeighted = %g, want %g", m.TotalWeighted, want)
	}
	if m.TickLatency.Count == 0 || m.TickLatency.Max <= 0 {
		t.Fatalf("tick latency not recorded: %+v", m.TickLatency)
	}
	if cs := d.Snapshot().Coflows.Get(id); cs.Slowdown < 1 {
		t.Fatalf("slowdown = %g < 1", cs.Slowdown)
	}
}

func TestZeroDemandCompletesAtRelease(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 2})
	if err := d.Tick(); err != nil { // move the clock so release is non-zero
		t.Fatal(err)
	}
	id, release, err := register(d, &coflowmodel.Registration{})
	if err != nil {
		t.Fatal(err)
	}
	if release != 1 {
		t.Fatalf("release = %d, want 1", release)
	}
	cs := d.Snapshot().Coflows.Get(id)
	if cs.State != "completed" || cs.Completed != 1 || cs.Slowdown != 1 {
		t.Fatalf("zero-demand status = %+v", cs)
	}
}

func TestRegisterValidation(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 2})
	_, _, err := register(d, &coflowmodel.Registration{
		Flows: []coflowmodel.Flow{{Src: 5, Dst: 0, Size: 1}},
	})
	if err == nil {
		t.Fatal("out-of-range flow accepted")
	}
	if d.Snapshot().Metrics.Registered != 0 {
		t.Fatal("rejected registration counted")
	}
}

func TestCancel(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 1})
	hog, _, err := register(d, &coflowmodel.Registration{
		Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	small, _, err := register(d, &coflowmodel.Registration{
		Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Cancel(99); err == nil {
		t.Fatal("unknown id cancelled")
	}
	if err := d.Cancel(hog); err != nil {
		t.Fatal(err)
	}
	if err := d.Cancel(hog); err == nil {
		t.Fatal("double cancel accepted")
	}
	if cs := d.Snapshot().Coflows.Get(hog); cs.State != "cancelled" {
		t.Fatalf("hog state = %q", cs.State)
	}
	// With the hog gone, the small coflow completes in one slot.
	if err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	cs := d.Snapshot().Coflows.Get(small)
	if cs.State != "completed" || cs.Completed != 1 {
		t.Fatalf("small coflow = %+v", cs)
	}
	if err := d.Cancel(small); err == nil || !strings.Contains(err.Error(), "completed") {
		t.Fatalf("cancelling completed coflow: %v", err)
	}
	if m := d.Snapshot().Metrics; m.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", m.Cancelled)
	}
}

func TestScheduleSnapshotIsAMatching(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 2, Policy: online.WSPT})
	for i := 0; i < 3; i++ {
		_, _, err := register(d, &coflowmodel.Registration{
			Flows: []coflowmodel.Flow{{Src: 0, Dst: 0, Size: 2}, {Src: 1, Dst: 1, Size: 2}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	sched := d.Snapshot().Schedule
	if len(sched) == 0 {
		t.Fatal("empty schedule after tick over live demand")
	}
	src, dst := map[int]bool{}, map[int]bool{}
	for _, a := range sched {
		if src[a.Src] || dst[a.Dst] {
			t.Fatalf("schedule %v is not a matching", sched)
		}
		src[a.Src] = true
		dst[a.Dst] = true
	}
}

func TestDeadlineDegradesToFIFO(t *testing.T) {
	// A 1ns budget is always exceeded: the first tick must degrade the
	// daemon, and with degradeHold consecutive sub-nanosecond ticks
	// being impossible it stays degraded.
	d := newTestDaemon(t, Config{Ports: 2, Policy: online.SEBF, Deadline: time.Nanosecond})
	if _, _, err := register(d, &coflowmodel.Registration{
		Flows: []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 100}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	m := d.Snapshot().Metrics
	if !m.Degraded || m.ActivePolicy != "FIFO" || m.Policy != "SEBF" {
		t.Fatalf("after over-budget tick: %+v", m)
	}
	for i := 0; i < 3; i++ {
		if err := d.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if m := d.Snapshot().Metrics; !m.Degraded {
		t.Fatal("degrade did not stick under a 1ns budget")
	}
}

func TestNoDeadlineNeverDegrades(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 2, Policy: online.SEBF})
	for i := 0; i < 5; i++ {
		if err := d.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if m := d.Snapshot().Metrics; m.Degraded || m.ActivePolicy != "SEBF" {
		t.Fatalf("degraded without a deadline: %+v", m)
	}
}

func TestClosedDaemonRefusesCommands(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 2})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := register(d, &coflowmodel.Registration{}); err != ErrClosed {
		t.Fatalf("Register after Close: %v", err)
	}
	if err := d.Tick(); err != ErrClosed {
		t.Fatalf("Tick after Close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if d.Snapshot() == nil {
		t.Fatal("snapshot unavailable after Close")
	}
}

// The acceptance criterion's race check: concurrent registrations,
// cancellations, reads and ticks on one daemon. Run with -race.
func TestConcurrentRegistrationsAndReads(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 4, Policy: online.SEBF, Window: 64})
	const (
		writers       = 4
		readers       = 4
		perWriter     = 25
		ticks     int = 200
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	wg.Add(1)
	go func() { // dedicated ticker driver
		defer wg.Done()
		for i := 0; i < ticks; i++ {
			if err := d.Tick(); err != nil {
				t.Errorf("tick: %v", err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id, _, err := register(d, &coflowmodel.Registration{
					Weight: 1 + float64(i%3),
					Flows:  []coflowmodel.Flow{{Src: i % 4, Dst: (i + 1) % 4, Size: 3}},
				})
				if err != nil {
					t.Errorf("register: %v", err)
					return
				}
				if i%5 == 0 {
					// Cancel a recent registration; completed/already-
					// cancelled conflicts are expected and fine.
					_ = d.Cancel(id)
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := d.Snapshot()
				if snap.Metrics.Registered < snap.Metrics.Completed {
					t.Error("completed exceeds registered")
					return
				}
				snap.Coflows.Range(func(_ int, cs *CoflowStatus) bool {
					if cs.State == "completed" && cs.Remaining != 0 {
						t.Errorf("completed coflow with remaining %d", cs.Remaining)
						return false
					}
					return true
				})
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Stop readers once writers and ticker are done.
	go func() {
		defer close(stop)
		deadline := time.After(30 * time.Second)
		for {
			snap := d.Snapshot()
			if snap.Metrics.Registered == int64(writers*perWriter) && snap.Metrics.Ticks == int64(ticks) {
				return
			}
			select {
			case <-deadline:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	<-done

	// Drain everything that is still live and check conservation.
	for d.Snapshot().Metrics.ActiveCoflows > 0 {
		if err := d.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	m := d.Snapshot().Metrics
	if m.Registered != int64(writers*perWriter) {
		t.Fatalf("registered = %d, want %d", m.Registered, writers*perWriter)
	}
	if m.Completed+m.Cancelled != m.Registered {
		t.Fatalf("completed %d + cancelled %d != registered %d",
			m.Completed, m.Cancelled, m.Registered)
	}
}

func TestPlanTracksBacklog(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 2, Policy: online.SEBF, Plan: true})
	if _, _, err := register(d, &coflowmodel.Registration{
		Flows: []coflowmodel.Flow{
			{Src: 0, Dst: 0, Size: 1}, {Src: 0, Dst: 1, Size: 2},
			{Src: 1, Dst: 0, Size: 2}, {Src: 1, Dst: 1, Size: 1},
		},
	}); err != nil {
		t.Fatal(err)
	}
	// The first tick runs the cold plan of the fresh backlog: ρ(D) = 3.
	if err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	m := d.Snapshot().Metrics
	if !m.Plan || m.PlanError != "" {
		t.Fatalf("plan metrics after first tick: %+v", m)
	}
	if m.PlanLoad <= 0 || m.PlanTerms <= 0 {
		t.Fatalf("first plan: load %d, terms %d, want both positive", m.PlanLoad, m.PlanTerms)
	}
	// The greedy clears within 2ρ−1 slots; the plan must drain with it.
	for slot := 0; slot < 5; slot++ {
		if err := d.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	m = d.Snapshot().Metrics
	if m.Completed != 1 {
		t.Fatalf("coflow not completed: %+v", m)
	}
	if m.PlanLoad != 0 || m.PlanTerms != 0 {
		t.Fatalf("drained backlog still planned: load %d, terms %d", m.PlanLoad, m.PlanTerms)
	}
	if m.PlanError != "" {
		t.Fatalf("planner disabled: %s", m.PlanError)
	}
}

func TestPlanShedsCancelledDemand(t *testing.T) {
	d := newTestDaemon(t, Config{Ports: 2, Policy: online.SEBF, Plan: true})
	id, _, err := register(d, &coflowmodel.Registration{
		Flows: []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Tick(); err != nil { // one unit served, plan primed
		t.Fatal(err)
	}
	if m := d.Snapshot().Metrics; m.PlanLoad != 4 {
		t.Fatalf("plan load after one served slot = %d, want 4", m.PlanLoad)
	}
	if err := d.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	m := d.Snapshot().Metrics
	if m.PlanError != "" {
		t.Fatalf("planner disabled by cancel: %s", m.PlanError)
	}
	if m.PlanLoad != 0 {
		t.Fatalf("cancelled demand still planned: load %d", m.PlanLoad)
	}
}
