package obs

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestNilRegistryAndMetricsAreNoOps calls every exported method of the
// nil *Registry, *Counter, *Gauge and *Histogram and of the zero Span,
// found by reflection so a method added later is covered too, with zero
// arguments: none may panic, and every result must be the zero value.
func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	for _, recv := range []any{(*Registry)(nil), (*Counter)(nil), (*Gauge)(nil), (*Histogram)(nil), Span{}} {
		v := reflect.ValueOf(recv)
		for i := 0; i < v.NumMethod(); i++ {
			name := fmt.Sprintf("%T.%s", recv, v.Type().Method(i).Name)
			m := v.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			call := m.Call
			if m.Type().IsVariadic() {
				call = m.CallSlice
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s on nil panics: %v", name, p)
					}
				}()
				for _, out := range call(args) {
					if !out.IsZero() {
						t.Errorf("%s on nil returns %v, want the zero value", name, out)
					}
				}
			}()
		}
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests")
	c.Inc()
	c.Add(4)
	c.Add(-3) // counters never decrease; negative deltas are dropped
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(2.5)
	g.Set(2) // a gauge moves both ways
	if g.Value() != 2.0 {
		t.Fatalf("gauge = %g, want 2", g.Value())
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	for _, bad := range []string{"", "0abc", "has space", "has-dash", "ütf"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted", bad)
				}
			}()
			NewRegistry().Counter(bad, "")
		}()
	}
	// Duplicate names panic too, across metric kinds.
	defer func() {
		if recover() == nil {
			t.Error("duplicate name accepted")
		}
	}()
	r := NewRegistry()
	r.Counter("dup", "")
	r.Gauge("dup", "")
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 1.5, 10, 11, 1000} {
		h.Observe(v)
	}
	// Bucket semantics are le (≤): 1 lands in the first bucket, 10 in
	// the second, 1000 in +Inf.
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-1024.0) > 1e-9 {
		t.Fatalf("sum = %g, want 1024", h.Sum())
	}
}

// Bucket monotonicity: however values are thrown at the histogram, the
// cumulative bucket counts must be non-decreasing in le and the last
// cumulative count must equal Count(). This is the invariant a
// Prometheus scraper depends on.
func TestHistogramCumulativeMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", LatencyBuckets)
	v := 1e-9
	for i := 0; i < 10000; i++ {
		h.Observe(v)
		v = math.Mod(v*1.618+1e-8, 20) // deterministic pseudo-random spread
	}
	var cum, prev uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum < prev {
			t.Fatalf("cumulative count decreased at bucket %d", i)
		}
		prev = cum
	}
	if cum != h.Count() {
		t.Fatalf("cumulative %d != count %d", cum, h.Count())
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 4, 8})
	if h.Quantile(0.5) != 0 {
		t.Fatal("quantile of empty histogram not 0")
	}
	// 100 observations uniform in (0,1]: p50 interpolates inside the
	// first bucket, p99 stays ≤ 1.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	if q := h.Quantile(0.5); q <= 0 || q > 1 {
		t.Fatalf("p50 = %g, want in (0,1]", q)
	}
	// Everything beyond the last bound clamps to it.
	h2 := r.Histogram("lat2", "", []float64{1, 2})
	h2.Observe(100)
	if q := h2.Quantile(0.99); q != 2 {
		t.Fatalf("overflow quantile = %g, want clamp to 2", q)
	}
}

// Concurrent writers under -race: counters, gauges, histograms and
// spans hammered from many goroutines must neither race nor lose
// updates (for the counting metrics, which are exact).
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{0.5, 1})
	const workers, perWorker = 8, 2000
	const total = workers * perWorker
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(total)
				h.Observe(0.25)
				sp := h.Start()
				sp.End()
			}
		}()
	}
	wg.Wait()
	if c.Value() != total {
		t.Fatalf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Fatalf("gauge = %g, want %d", g.Value(), total)
	}
	if h.Count() != 2*total {
		t.Fatalf("histogram count = %d, want %d", h.Count(), 2*total)
	}
	if h.counts[0].Load() < total { // the 0.25 observations at least
		t.Fatalf("first bucket = %d, want ≥ %d", h.counts[0].Load(), total)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("coflow_steps_total", "scheduling steps")
	c.Add(3)
	g := r.Gauge("coflow_active", "live coflows")
	g.Set(1.5)
	h := r.Histogram("coflow_step_seconds", "step latency", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP coflow_steps_total scheduling steps\n",
		"# TYPE coflow_steps_total counter\n",
		"coflow_steps_total 3\n",
		"# TYPE coflow_active gauge\n",
		"coflow_active 1.5\n",
		"# TYPE coflow_step_seconds histogram\n",
		`coflow_step_seconds_bucket{le="0.001"} 1` + "\n",
		`coflow_step_seconds_bucket{le="0.01"} 1` + "\n",
		`coflow_step_seconds_bucket{le="+Inf"} 2` + "\n",
		"coflow_step_seconds_sum 0.5005\n",
		"coflow_step_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestDumpAndTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "a counter").Add(2)
	h := r.Histogram("h", "a histogram", []float64{1})
	h.Observe(0.5)
	dump := r.Dump()
	if len(dump) != 2 {
		t.Fatalf("dump has %d metrics, want 2", len(dump))
	}
	if dump[0].Kind != "counter" || *dump[0].Value != 2 {
		t.Fatalf("counter dump = %+v", dump[0])
	}
	if dump[1].Kind != "histogram" || dump[1].Histogram.Count != 1 {
		t.Fatalf("histogram dump = %+v", dump[1])
	}
	var b strings.Builder
	if err := r.WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "h") || !strings.Contains(b.String(), "p99") {
		t.Fatalf("table output missing columns:\n%s", b.String())
	}
	var j strings.Builder
	if err := r.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(j.String(), `"metrics"`) {
		t.Fatalf("json output: %s", j.String())
	}
}

// The metrics path must be allocation-free in steady state: the
// enabled-path zero-alloc guarantee of the instrumented schedulers
// rests on this.
func TestMetricUpdatesDoNotAllocate(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", LatencyBuckets)
	if avg := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.Set(1)
		h.Observe(0.001)
		sp := h.Start()
		sp.End()
	}); avg != 0 {
		t.Errorf("metric updates allocate %.1f times per op, want 0", avg)
	}
	// The disabled path must also be allocation-free (and is tested
	// separately for not reading the clock by being branch-only).
	var nilH *Histogram
	var nilC *Counter
	if avg := testing.AllocsPerRun(200, func() {
		nilC.Inc()
		sp := nilH.Start()
		sp.End()
	}); avg != 0 {
		t.Errorf("disabled-path updates allocate %.1f times per op, want 0", avg)
	}
}
