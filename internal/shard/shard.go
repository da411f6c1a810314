package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"coflow/internal/coflowmodel"
	"coflow/internal/daemon"
)

// ErrUnknownCoflow is returned for operations addressing an ID no
// fabric has ever seen. It wraps daemon.ErrUnknownCoflow so callers
// classify a miss the same way — errors.Is, and the HTTP plane's
// not_found — whether one fabric or the whole cluster reports it.
var ErrUnknownCoflow = fmt.Errorf("shard: %w", daemon.ErrUnknownCoflow)

// ErrUnknownFabric marks a registration pinned to, or a port operation
// aimed at, a fabric ID the cluster does not have.
var ErrUnknownFabric = errors.New("unknown fabric")

// Config parametrizes a Cluster.
type Config struct {
	// Shards is the number of independent switch fabrics; zero means 1.
	Shards int
	// Fabric is the per-fabric daemon configuration (ports, policy,
	// tick, deadline guard, self-check, ...). Every fabric gets an
	// identical copy except SnapshotPath, which is suffixed with the
	// fabric index when Shards > 1 so fabrics do not clobber each
	// other's final state.
	Fabric daemon.Config
	// Ports optionally overrides Fabric.Ports per fabric for a
	// heterogeneous deployment (len must equal Shards). Registrations
	// are validated against the ports of the fabric they route to.
	Ports []int
	// MaxBody caps HTTP request bodies in bytes; zero means 1 MiB.
	MaxBody int64
	// AggEvery bounds how often the cross-shard metrics aggregate is
	// recomputed: reads within the window share the cached aggregate,
	// so a scrape storm costs one N-fabric walk per window instead of
	// one per request. Zero means 25ms; negative disables caching
	// (every read recomputes — tests use this for determinism).
	AggEvery time.Duration
}

// Cluster owns N switch fabrics behind one control plane. Writes
// (register, cancel) are routed to exactly one fabric's single-writer
// loop; reads are served from per-fabric atomic snapshots and the
// amortized aggregate. A Cluster is safe for concurrent use.
type Cluster struct {
	cfg     Config
	ring    *Ring
	fabrics []*daemon.Daemon
	obs     *clusterObs

	// nextID is the cluster-unique coflow ID sequence. IDs are
	// assigned here (not by the fabrics) so one ID space spans the
	// cluster and the consistent hash of the ID is the routing key.
	nextID atomic.Int64

	agg       atomic.Pointer[aggregate]
	aggStamp  atomic.Int64 // monotonic ns of the newest (re)compute claim
	aggEpoch  time.Time    // base for monotonic stamps
	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error

	// maxPorts is the widest fabric's port count: the HTTP plane's
	// parse-time validation bound (the owning fabric re-validates on
	// ingest).
	maxPorts int
	// labels holds "0".."N-1" for the Prometheus fabric label.
	labels []string
}

// aggregate is one cached cross-shard metrics rollup.
type aggregate struct {
	metrics *ClusterMetrics
}

// ShardMetrics is one fabric's slice of the cluster metrics payload.
type ShardMetrics struct {
	Fabric  int            `json:"fabric"`
	Ports   int            `json:"ports"`
	Slot    int64          `json:"slot"`
	Metrics daemon.Metrics `json:"metrics"`
}

// ClusterMetrics is the fabric-level rollup plus per-shard detail
// served by the sharded GET /v1/metrics.
type ClusterMetrics struct {
	Fabrics       int     `json:"fabrics"`
	Registered    int64   `json:"registered"`
	Completed     int64   `json:"completed"`
	Cancelled     int64   `json:"cancelled"`
	Active        int     `json:"active_coflows"`
	Ticks         int64   `json:"ticks"`
	TicksSkipped  int64   `json:"ticks_skipped"`
	TotalWeighted float64 `json:"total_weighted_completion"`

	// Router and ingestion-plane counters.
	Routed        int64 `json:"routed"`
	Pinned        int64 `json:"pinned"`
	FallbackScans int64 `json:"route_fallback_scans"`
	BulkRequests  int64 `json:"bulk_requests"`
	BulkItems     int64 `json:"bulk_items"`

	// IngestLatency summarizes coflow_cluster_ingest_seconds: the
	// server-side latency of one registration through route + loop.
	IngestLatency HistogramJSON `json:"ingest_latency"`

	PerShard []ShardMetrics `json:"per_shard"`
}

// HistogramJSON mirrors obs.HistogramSnapshot for the JSON payload.
type HistogramJSON struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// New validates cfg and starts every fabric (each with its own event
// loop, and its own ticker when Fabric.Tick > 0).
func New(cfg Config) (*Cluster, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("shard: negative shard count %d", cfg.Shards)
	}
	if cfg.Ports != nil && len(cfg.Ports) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d per-fabric port overrides for %d shards", len(cfg.Ports), cfg.Shards)
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	if cfg.AggEvery == 0 {
		cfg.AggEvery = 25 * time.Millisecond
	}
	c := &Cluster{
		cfg:      cfg,
		ring:     NewRing(cfg.Shards, 0),
		fabrics:  make([]*daemon.Daemon, 0, cfg.Shards),
		obs:      newClusterObs(),
		aggEpoch: time.Now(),
	}
	for i := 0; i < cfg.Shards; i++ {
		fc := cfg.Fabric
		if cfg.Ports != nil {
			fc.Ports = cfg.Ports[i]
		}
		if fc.SnapshotPath != "" && cfg.Shards > 1 {
			fc.SnapshotPath = fmt.Sprintf("%s.fabric%d", fc.SnapshotPath, i)
		}
		d, err := daemon.New(fc)
		if err != nil {
			// Already-started fabrics must not leak their loops.
			for _, prev := range c.fabrics {
				// Already failing: the config error is what the caller
				// needs; fabric teardown is best effort.
				_ = prev.Close()
			}
			return nil, fmt.Errorf("shard: fabric %d: %w", i, err)
		}
		c.fabrics = append(c.fabrics, d)
	}
	c.labels = make([]string, cfg.Shards)
	for i, d := range c.fabrics {
		c.labels[i] = fmt.Sprintf("%d", i)
		if p := d.Ports(); p > c.maxPorts {
			c.maxPorts = p
		}
	}
	c.obs.fabrics.Set(float64(cfg.Shards))
	return c, nil
}

// Shards returns the fabric count.
func (c *Cluster) Shards() int { return len(c.fabrics) }

// Fabric returns fabric i (panics out of range). For tests, coflowd's
// start-up log and the benchmark harness.
func (c *Cluster) Fabric(i int) *daemon.Daemon { return c.fabrics[i] }

// Close drains every fabric: each loop stops, writes its final
// snapshot if configured, and refuses further commands. The first
// error from each fabric is joined.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		errs := make([]error, len(c.fabrics))
		for i, d := range c.fabrics {
			errs[i] = d.Close()
		}
		c.closeErr = errors.Join(errs...)
	})
	return c.closeErr
}

// Register routes one registration: to its pinned fabric when the
// registration names one, otherwise to the consistent hash of the
// cluster-assigned coflow ID. The returned fabric is where the coflow
// lives; reads and cancels find it again through Owner.
func (c *Cluster) Register(reg *coflowmodel.Registration) (id int, release int64, fabric int, err error) {
	span := c.obs.ingestSeconds.Start()
	defer span.End()
	id = int(c.nextID.Add(1))
	if reg.Fabric != nil {
		fabric = *reg.Fabric
		if fabric < 0 || fabric >= len(c.fabrics) {
			c.obs.ingestErrors.Inc()
			return 0, 0, 0, fmt.Errorf("shard: %w %d (cluster has fabrics 0..%d)",
				ErrUnknownFabric, fabric, len(c.fabrics)-1)
		}
		c.obs.pinned.Inc()
	} else {
		fabric = c.ring.Route(uint64(id))
		c.obs.routed.Inc()
	}
	release, err = c.fabrics[fabric].RegisterWithID(id, reg)
	if err != nil {
		c.obs.ingestErrors.Inc()
		return 0, 0, 0, err
	}
	return id, release, fabric, nil
}

// Owner locates the fabric holding id: the hash owner first (every
// unpinned coflow lives there), then a scan of the remaining
// snapshots (pinned coflows, counted as fallback scans). Reads only
// atomic snapshots — never a fabric loop — and registrations are
// published before their reply, so an acked ID is always findable.
func (c *Cluster) Owner(id int) (fabric int, cs *daemon.CoflowStatus, ok bool) {
	if id <= 0 {
		return 0, nil, false
	}
	f := c.ring.Route(uint64(id))
	if cs := c.fabrics[f].Snapshot().Coflows.Get(id); cs != nil {
		return f, cs, true
	}
	c.obs.fallbackScans.Inc()
	for i, d := range c.fabrics {
		if i == f {
			continue
		}
		if cs := d.Snapshot().Coflows.Get(id); cs != nil {
			return i, cs, true
		}
	}
	return 0, nil, false
}

// Cancel cancels the live coflow with the given cluster ID, wherever
// it lives.
func (c *Cluster) Cancel(id int) error {
	_, err := c.CancelFabric(id)
	return err
}

// CancelFabric cancels like Cancel and additionally reports the fabric
// that owned the coflow; the bulk-cancel HTTP plane uses it to fill
// index-addressed per-item results.
func (c *Cluster) CancelFabric(id int) (fabric int, err error) {
	fabric, _, ok := c.Owner(id)
	if !ok {
		return 0, fmt.Errorf("%w %d", ErrUnknownCoflow, id)
	}
	return fabric, c.fabrics[fabric].Cancel(id)
}

// FailPort takes port p offline on fabric k, or on every fabric that
// has the port when k is negative (heterogeneous clusters skip fabrics
// too small for it). Demand on a failed port is parked, never dropped
// (see daemon.FailPort). It fails if k names no fabric, or if no
// fabric has the port.
func (c *Cluster) FailPort(fabric, port int) error {
	return c.portOp(fabric, port, true)
}

// RecoverPort brings port p back online on fabric k, or on every
// fabric that has the port when k is negative.
func (c *Cluster) RecoverPort(fabric, port int) error {
	return c.portOp(fabric, port, false)
}

func (c *Cluster) portOp(fabric, port int, fail bool) error {
	do := func(d *daemon.Daemon) error {
		if fail {
			return d.FailPort(port)
		}
		return d.RecoverPort(port)
	}
	if fabric >= 0 {
		if fabric >= len(c.fabrics) {
			return fmt.Errorf("shard: %w %d (cluster has fabrics 0..%d)",
				ErrUnknownFabric, fabric, len(c.fabrics)-1)
		}
		return do(c.fabrics[fabric])
	}
	applied := false
	for i, d := range c.fabrics {
		if port >= d.Ports() {
			continue
		}
		if err := do(d); err != nil {
			return fmt.Errorf("shard: fabric %d: %w", i, err)
		}
		applied = true
	}
	if !applied {
		return fmt.Errorf("shard: port %d outside every fabric", port)
	}
	return nil
}

// Tick advances every fabric one slot synchronously, in fabric order.
// Tests and external clocks use it; production fabrics run their own
// tickers (Config.Fabric.Tick > 0).
func (c *Cluster) Tick() error {
	for i, d := range c.fabrics {
		if err := d.Tick(); err != nil {
			return fmt.Errorf("shard: fabric %d: %w", i, err)
		}
	}
	return nil
}

// Metrics returns the cross-shard rollup, recomputing at most once
// per Config.AggEvery: concurrent readers inside the window share the
// cached aggregate (an atomic pointer load), so heavy scrape traffic
// costs one N-fabric walk per window, not per request. The loser of a
// recompute race serves the winner's (fresh) result.
func (c *Cluster) Metrics() *ClusterMetrics {
	if c.cfg.AggEvery > 0 {
		now := time.Since(c.aggEpoch).Nanoseconds()
		stamp := c.aggStamp.Load()
		if cached := c.agg.Load(); cached != nil && now-stamp < c.cfg.AggEvery.Nanoseconds() {
			return cached.metrics
		}
		if !c.aggStamp.CompareAndSwap(stamp, now) {
			// Another reader claimed the recompute; serve what is
			// published (it is at most one window old).
			if cached := c.agg.Load(); cached != nil {
				return cached.metrics
			}
		}
	}
	m := c.computeMetrics()
	c.agg.Store(&aggregate{metrics: m})
	return m
}

// computeMetrics walks every fabric snapshot and the cluster
// registry. O(shards); called through the amortizing cache.
func (c *Cluster) computeMetrics() *ClusterMetrics {
	o := c.obs
	ing := o.ingestSeconds.Snapshot()
	m := &ClusterMetrics{
		Fabrics:       len(c.fabrics),
		Routed:        o.routed.Value(),
		Pinned:        o.pinned.Value(),
		FallbackScans: o.fallbackScans.Value(),
		BulkRequests:  o.bulkRequests.Value(),
		BulkItems:     o.bulkItems.Value(),
		IngestLatency: HistogramJSON{Count: ing.Count, Mean: ing.Mean, P50: ing.P50, P99: ing.P99},
		PerShard:      make([]ShardMetrics, len(c.fabrics)),
	}
	for i, d := range c.fabrics {
		snap := d.Snapshot()
		dm := snap.Metrics
		m.PerShard[i] = ShardMetrics{Fabric: i, Ports: d.Ports(), Slot: snap.Slot, Metrics: dm}
		m.Registered += dm.Registered
		m.Completed += dm.Completed
		m.Cancelled += dm.Cancelled
		m.Active += dm.ActiveCoflows
		m.Ticks += dm.Ticks
		m.TicksSkipped += dm.TicksSkipped
		m.TotalWeighted += dm.TotalWeighted
	}
	o.rollupRegistered.Set(float64(m.Registered))
	o.rollupCompleted.Set(float64(m.Completed))
	o.rollupCancelled.Set(float64(m.Cancelled))
	o.rollupActive.Set(float64(m.Active))
	o.rollupWeighted.Set(m.TotalWeighted)
	return m
}
