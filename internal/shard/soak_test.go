//go:build slowcheck

package shard

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"coflow/internal/coflowmodel"
	"coflow/internal/daemon"
	"coflow/internal/online"
)

// TestChurnSoak is the cancellation-churn soak the scenario engine's
// bugfix work exists for: a 4-fabric cluster with the BvN planner and
// the self-check monitor enabled, externally clocked, hammered by
// concurrent workers registering and cancelling mid-flight while a
// ticker drains and a reader scrapes metrics. Run under -race via
// `make slowcheck`.
//
// Invariants pinned:
//   - no lost cancellations: a Cancel of an ID we created either
//     succeeds or reports the terminal race (ErrTerminalCoflow) —
//     never unknown — and every successful cancel leaves the coflow
//     in state "cancelled";
//   - zero self-check violations across every fabric;
//   - the planner stays alive (no PlanError) and its load drains to
//     zero with the fabric;
//   - the cluster drains to zero active coflows.
func TestChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	const (
		shards        = 4
		ports         = 16
		regsPerWorker = 250
		workers       = 4
	)
	c := newTestCluster(t, Config{
		Shards: shards,
		Fabric: daemon.Config{
			Ports:          ports,
			Policy:         online.SEBF,
			Plan:           true,
			SelfCheck:      true,
			SelfCheckEvery: 1,
		},
	})

	done := make(chan struct{})
	var tickErr error
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := c.Tick(); err != nil {
				tickErr = err
				return
			}
		}
	}()
	readerDone := make(chan struct{})
	go func() { // scrape storm: races the aggregate against the churn
		defer close(readerDone)
		for {
			select {
			case <-done:
				return
			default:
				c.Metrics()
			}
		}
	}()

	type outcome struct {
		ids       []int
		cancelled map[int]bool
		lost      []error
	}
	results := make([]outcome, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*104729 + 17))
			out := &results[w]
			out.cancelled = map[int]bool{}
			for i := 0; i < regsPerWorker; i++ {
				reg := &coflowmodel.Registration{Weight: 1 + rng.Float64()}
				for f, n := 0, 1+rng.Intn(4); f < n; f++ {
					reg.Flows = append(reg.Flows, coflowmodel.Flow{
						Src: rng.Intn(ports), Dst: rng.Intn(ports), Size: 1 + rng.Int63n(20),
					})
				}
				id, _, _, err := c.Register(reg)
				if err != nil {
					out.lost = append(out.lost, err)
					return
				}
				out.ids = append(out.ids, id)
				if rng.Intn(2) == 0 {
					victim := out.ids[rng.Intn(len(out.ids))]
					switch err := c.Cancel(victim); {
					case err == nil:
						out.cancelled[victim] = true
					case errors.Is(err, daemon.ErrTerminalCoflow):
						// completed or already cancelled first: expected churn
					default:
						out.lost = append(out.lost, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	tickWG.Wait()
	<-readerDone
	if tickErr != nil {
		t.Fatalf("ticker died: %v", tickErr)
	}

	// Drain whatever churn left behind.
	for i := 0; i < 100000 && c.Metrics().Active > 0; i++ {
		if err := c.Tick(); err != nil {
			t.Fatalf("drain tick: %v", err)
		}
	}

	var cancels int
	for w := range results {
		out := &results[w]
		if len(out.lost) > 0 {
			t.Fatalf("worker %d lost operations: %v", w, out.lost)
		}
		cancels += len(out.cancelled)
		for _, id := range out.ids {
			_, cs, ok := c.Owner(id)
			if !ok {
				t.Fatalf("coflow %d vanished", id)
			}
			switch {
			case out.cancelled[id] && cs.State != "cancelled":
				t.Fatalf("coflow %d: cancel succeeded but state is %q (lost cancellation)", id, cs.State)
			case !out.cancelled[id] && cs.State != "completed" && cs.State != "cancelled":
				t.Fatalf("coflow %d never drained: state %q, remaining %d", id, cs.State, cs.Remaining)
			}
		}
	}

	m := c.Metrics()
	if m.Active != 0 {
		t.Fatalf("%d coflows still active after drain", m.Active)
	}
	if m.Cancelled != int64(cancels) {
		t.Fatalf("cluster counted %d cancels, workers performed %d", m.Cancelled, cancels)
	}
	if m.Registered != int64(workers*regsPerWorker) {
		t.Fatalf("cluster counted %d registrations, want %d", m.Registered, workers*regsPerWorker)
	}
	for _, s := range m.PerShard {
		fm := s.Metrics
		if fm.SelfCheckViolations != 0 {
			t.Fatalf("fabric %d: %d self-check violations", s.Fabric, fm.SelfCheckViolations)
		}
		if fm.PlanError != "" {
			t.Fatalf("fabric %d: planner died: %s", s.Fabric, fm.PlanError)
		}
		if !fm.Plan {
			t.Fatalf("fabric %d: planner not running", s.Fabric)
		}
		// The plan must drain with the fabric.
		if fm.PlanLoad != 0 {
			t.Fatalf("fabric %d: plan load %d after drain, want 0", s.Fabric, fm.PlanLoad)
		}
	}
}
