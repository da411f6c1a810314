// Package obs is the scheduler's observability kernel: a stdlib-only
// metrics layer built for a hot path that must not notice it. It
// provides atomic counters and gauges, fixed-bucket latency histograms
// and a per-stage timer (Span) that costs one nil check when
// observability is off.
//
// The central design rule is "free when off": every metric type is a
// pointer whose methods are nil-receiver safe no-ops, and a nil
// *Registry hands out nil metrics. Instrumented code therefore never
// branches on a config flag — it writes
//
//	span := o.SortSeconds.Start()
//	...
//	span.End()
//
// unconditionally, and when the registry is nil both calls reduce to
// an inlined nil check: no clock read, no atomic, no allocation. The
// enabled path is also steady-state allocation-free — all storage is
// fixed at registration time — so turning observability on does not
// disturb the zero-alloc guarantee of the packages it watches (see
// online.TestStepObsEnabledDoesNotAllocate).
//
// Rendering is pull-based and off the hot path: WritePrometheus emits
// the Prometheus text exposition format for scrapers, WriteJSON a
// machine-readable dump (histograms carry bucket counts and estimated
// p50/p99), and WriteTable a human-readable per-stage summary used by
// coflowsim -obs.
//
// A Registry and its metrics are safe for concurrent use. Metric
// updates are lock-free; registration and rendering take the registry
// mutex.
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Registry owns a set of named metrics and renders them. The zero
// value is not usable; call NewRegistry. A nil *Registry is the
// disabled mode: its constructors return nil metrics whose methods
// are no-ops.
type Registry struct {
	mu      sync.Mutex
	metrics []metric        // in registration order; guarded by mu
	names   map[string]bool // guarded by mu
}

// metric is the renderer-facing face of every metric kind.
type metric interface {
	metricName() string
	metricHelp() string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// register validates the name and appends m. Names follow the
// Prometheus grammar and must be unique; violations panic (they are
// programmer errors at wiring time, not runtime conditions).
func (r *Registry) register(name string, m metric) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric name %q", name))
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// validName reports whether name matches [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Counter registers and returns a monotonically increasing counter,
// or nil (a no-op metric) when the registry is nil.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{name: name, help: help}
	r.register(name, c)
	return c
}

// Gauge registers and returns a gauge (a value that can go up and
// down), or nil when the registry is nil.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{name: name, help: help}
	r.register(name, g)
	return g
}

// Histogram registers and returns a fixed-bucket histogram with the
// given ascending upper bounds (an implicit +Inf bucket is appended),
// or nil when the registry is nil. It panics on unsorted bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending at %d", name, i))
		}
	}
	h := &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	r.register(name, h)
	return h
}

// snapshotMetrics copies the metric list under the lock so renderers
// iterate without holding it.
func (r *Registry) snapshotMetrics() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]metric(nil), r.metrics...)
}

// Counter is a monotonically increasing counter. All methods are safe
// on a nil receiver (no-ops reading as zero).
type Counter struct {
	v    atomic.Int64
	name string
	help string
}

// Inc adds one.
//
//coflow:allocfree
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (n must be non-negative; negative deltas are ignored so
// a counter can never decrease).
//
//coflow:allocfree
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricHelp() string { return c.help }

// Gauge is a value that can move both ways, stored as float64 bits.
// All methods are safe on a nil receiver.
type Gauge struct {
	bits atomic.Uint64
	name string
	help string
}

// Set stores v.
//
//coflow:allocfree
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricHelp() string { return g.help }

// Histogram is a fixed-bucket histogram: counts[i] observations fell
// in (bounds[i-1], bounds[i]], with a final +Inf bucket. Observe is
// lock-free and allocation-free. All methods are safe on a nil
// receiver.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1; last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	name    string
	help    string
}

// Observe records one value.
//
//coflow:allocfree
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: latency bucket lists are short (~25 entries) and the
	// common observations land in the first few, so this beats a binary
	// search in practice and keeps the code branch-predictable.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket
// counts by linear interpolation within the selected bucket, the
// standard Prometheus histogram_quantile estimate. It returns 0 with
// no observations; values in the +Inf bucket clamp to the largest
// finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i >= len(h.bounds) {
				// +Inf bucket: clamp to the largest finite bound.
				if len(h.bounds) == 0 {
					return 0
				}
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (h.bounds[i]-lo)*((rank-cum)/c)
		}
		cum += c
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// HistogramSnapshot is a point-in-time summary of a histogram, used
// by JSON payloads (the daemon's enriched /v1/metrics).
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// Snapshot summarizes the histogram. Safe on a nil receiver (zero
// snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	return s
}

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricHelp() string { return h.help }

// LatencyBuckets is the default bucket ladder for stage timings: a
// 1-2.5-5 progression from 100ns to 10s. It spans a no-op Step
// (~30ns rounds into the first bucket) up to a full LP solve, with
// ~3 buckets per decade — enough resolution for a meaningful p99
// while keeping 25 buckets per histogram.
var LatencyBuckets = []float64{
	1e-7, 2.5e-7, 5e-7,
	1e-6, 2.5e-6, 5e-6,
	1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3,
	1e-2, 2.5e-2, 5e-2,
	1e-1, 2.5e-1, 5e-1,
	1, 2.5, 5, 10,
}
