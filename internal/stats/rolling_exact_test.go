package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// window is the oracle for Rolling: the most recent capacity non-NaN
// values kept the obvious way, summarized by Summarize (copy + sort).
type window struct {
	vals     []float64
	capacity int
	total    int64
}

func (w *window) observe(v float64) {
	if v != v {
		return
	}
	if len(w.vals) == w.capacity {
		w.vals = append(w.vals[:0], w.vals[1:]...)
	}
	w.vals = append(w.vals, v)
	w.total++
}

// sameFloat is ==, except that NaN matches NaN: a window holding +Inf
// has variance Inf − Inf, so both sides report a NaN StdDev.
func sameFloat(a, b float64) bool { return a == b || (a != a && b != b) }

// diffRolling compares r field by field with the oracle and returns a
// description of the first difference, or "".
func diffRolling(r *Rolling, w *window) string {
	got, want := r.Summary(), Summarize(append([]float64(nil), w.vals...))
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Count", float64(got.Count), float64(want.Count)},
		{"Mean", got.Mean, want.Mean},
		{"P50", got.P50, want.P50},
		{"P90", got.P90, want.P90},
		{"P99", got.P99, want.P99},
		{"Min", got.Min, want.Min},
		{"Max", got.Max, want.Max},
		{"StdDev", got.StdDev, want.StdDev},
	} {
		if !sameFloat(f.got, f.want) {
			return fmt.Sprintf("%s = %v, Summarize says %v (window %v)", f.name, f.got, f.want, w.vals)
		}
	}
	if r.Total() != w.total {
		return fmt.Sprintf("Total = %d, want %d", r.Total(), w.total)
	}
	wantLast := 0.0
	if len(w.vals) > 0 {
		wantLast = w.vals[len(w.vals)-1]
	}
	if r.Last() != wantLast {
		return fmt.Sprintf("Last = %v, want %v", r.Last(), wantLast)
	}
	return ""
}

// TestRollingMatchesSummarize pins the order-statistic window to the
// batch implementation: over seeded sequences of every shape that
// stresses the sorted mirror (ties, runs that always insert at one end,
// signed zeros, infinities, dropped NaNs), after EVERY Observe the
// summary equals Summarize of the live window.
func TestRollingMatchesSummarize(t *testing.T) {
	generators := []struct {
		name string
		next func(rng *rand.Rand, i int) float64
	}{
		{"ties", func(rng *rand.Rand, _ int) float64 { return float64(rng.Intn(4)) }},
		{"up", func(_ *rand.Rand, i int) float64 { return float64(i) }},
		{"down", func(_ *rand.Rand, i int) float64 { return float64(-i) }},
		{"zeros", func(rng *rand.Rand, _ int) float64 {
			return []float64{0, math.Copysign(0, -1), 1}[rng.Intn(3)]
		}},
		{"inf", func(rng *rand.Rand, _ int) float64 {
			if rng.Intn(5) == 0 {
				return math.Inf(1)
			}
			return float64(rng.Intn(100))
		}},
		{"latency", func(rng *rand.Rand, _ int) float64 { return rng.ExpFloat64() * 1e-5 }},
		{"mixed", func(rng *rand.Rand, _ int) float64 {
			switch rng.Intn(12) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(-1)
			case 2:
				return math.MaxFloat64
			}
			return rng.NormFloat64()
		}},
	}
	sequences := 0
	for _, capacity := range []int{1, 2, 3, 7, 64, 1024} {
		seeds := 30
		if capacity == 1024 {
			seeds = 2 // each check sorts 1024 values; the small windows carry the count
		}
		for _, g := range generators {
			for seed := 0; seed < seeds; seed++ {
				sequences++
				rng := rand.New(rand.NewSource(int64(seed)*7919 + int64(capacity)))
				r, w := NewRolling(capacity), &window{capacity: capacity}
				for i := 0; i < 2*capacity+17; i++ {
					v := g.next(rng, i)
					r.Observe(v)
					w.observe(v)
					if d := diffRolling(r, w); d != "" {
						t.Fatalf("%s, capacity %d, seed %d, after observation %d (%v): %s",
							g.name, capacity, seed, i, v, d)
					}
				}
			}
		}
	}
	if sequences < 1000 {
		t.Fatalf("only %d sequences", sequences)
	}
}

// FuzzRollingVsSummarize drives the same oracle from raw bytes: a byte
// with the top bit clear is a small integer (ties), one with it set
// takes the next eight bytes as float64 bits (NaNs, infinities,
// subnormals, signed zeros).
func FuzzRollingVsSummarize(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3})
	f.Add(uint8(2), []byte{5, 5, 5, 5, 0, 7, 5})
	raw := func(prefix []byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64(append(prefix, 0x80), math.Float64bits(v))
	}
	f.Add(uint8(1), raw([]byte{3}, math.NaN()))
	f.Add(uint8(3), raw(nil, math.Inf(1)))
	f.Fuzz(func(t *testing.T, c uint8, data []byte) {
		capacity := 1 + int(c)%64
		r, w := NewRolling(capacity), &window{capacity: capacity}
		for i := 0; i < len(data); i++ {
			v := float64(data[i]&7) - 2
			if data[i]&0x80 != 0 {
				if len(data)-i-1 < 8 {
					return
				}
				v = math.Float64frombits(binary.LittleEndian.Uint64(data[i+1:]))
				i += 8
			}
			r.Observe(v)
			w.observe(v)
			if d := diffRolling(r, w); d != "" {
				t.Fatalf("capacity %d, after %v: %s", capacity, v, d)
			}
		}
	})
}

// TestRollingObserveNaN: a NaN is dropped wherever it arrives — it is
// not stored, does not advance Total and does not become Last — and
// the window keeps working afterwards.
func TestRollingObserveNaN(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name      string
		capacity  int
		observe   []float64
		wantLast  float64
		wantTotal int64
		wantMin   float64
		wantMax   float64
		wantCount int
	}{
		{"NaN first", 3, []float64{nan}, 0, 0, 0, 0, 0},
		{"NaN first, then values", 3, []float64{nan, 2, 1}, 1, 2, 1, 2, 2},
		{"NaN into a full window", 3, []float64{1, 2, 3, nan}, 3, 3, 1, 3, 3},
		{"NaN into a full window, then evict", 3, []float64{1, 2, 3, nan, 4}, 4, 4, 2, 4, 3},
		{"NaN between wraps", 2, []float64{1, 2, 3, 4, nan, nan, 5, 6, nan, 7}, 7, 7, 6, 7, 2},
		{"capacity 1", 1, []float64{9, nan}, 9, 1, 9, 9, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRolling(tc.capacity)
			for _, v := range tc.observe {
				r.Observe(v)
			}
			s := r.Summary()
			if r.Last() != tc.wantLast || r.Total() != tc.wantTotal ||
				s.Min != tc.wantMin || s.Max != tc.wantMax || s.Count != tc.wantCount {
				t.Fatalf("Last=%g Total=%d summary=%+v, want last=%g total=%d min=%g max=%g count=%d",
					r.Last(), r.Total(), s, tc.wantLast, tc.wantTotal, tc.wantMin, tc.wantMax, tc.wantCount)
			}
			if s.Mean != s.Mean || s.StdDev != s.StdDev {
				t.Fatalf("NaN leaked into the summary: %+v", s)
			}
		})
	}
}

// fullWindow returns a full 1024-value window and the 4096 values it
// has seen, to keep feeding it from.
func fullWindow() (*Rolling, []float64) {
	r := NewRolling(1024)
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 4096)
	for i := range values {
		values[i] = rng.ExpFloat64()
		r.Observe(values[i])
	}
	return r, values
}

// TestRollingDoesNotAllocate: the daemon calls Observe and Summary on
// four full windows every tick; neither may allocate.
func TestRollingDoesNotAllocate(t *testing.T) {
	r, values := fullWindow()
	i := 0
	var sink Summary
	allocs := testing.AllocsPerRun(1000, func() {
		r.Observe(values[i%len(values)])
		i++
		sink = r.Summary()
	})
	if allocs != 0 {
		t.Fatalf("Observe+Summary on a full window: %v allocs/op, want 0 (last %+v)", allocs, sink)
	}
}

var benchSummary Summary

// BenchmarkRollingObserveSummary is one window's share of a daemon
// tick: evict + insert into a full 1024-value window, then summarize.
func BenchmarkRollingObserveSummary(b *testing.B) {
	r, values := fullWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Observe(values[i%len(values)])
		benchSummary = r.Summary()
	}
}
