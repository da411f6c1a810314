package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// ramp returns 1, 2, …, n, whose q-quantile is 1 + q·(n−1).
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestMedianAndQuartiles(t *testing.T) {
	// q1 and q3 are what Python's statistics.quantiles(xs, n=4) returns.
	cases := []struct {
		name        string
		xs          []float64
		med, q1, q3 float64
	}{
		{"empty", nil, 0, 0, 0},
		{"one", []float64{7}, 7, 0, 0},
		{"two", []float64{20, 10}, 15, 7.5, 22.5},
		{"five", []float64{5, 3, 1, 4, 2}, 3, 1.5, 4.5},
		{"ten", ramp(10), 5.5, 2.75, 8.25},
		{"unsorted", []float64{3.1, 2.9, 3.0, 3.3, 2.8, 3.05, 2.95, 3.2, 3.15, 2.85}, 3.025, 2.8875, 3.1625},
	}
	for _, c := range cases {
		if got := median(c.xs); !near(got, c.med) {
			t.Errorf("%s: median = %v, want %v", c.name, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("%s: quartiles = %v, %v, want %v, %v", c.name, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread(ramp(10)); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want (8.25−2.75)/5.5 = 1", got)
	}
	if got := spread([]float64{4}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
}

func TestTailRule(t *testing.T) {
	cases := []struct {
		n       int
		pct     float64
		hasTail bool
	}{
		{5, 50, false},
		{19, 50, false},
		{20, 50, true},
		{1_000, 99, true},
		{10_000, 99.9, true},
		{1_000_000, 99.9, true}, // capped: ten beyond would allow 99.999
	}
	for _, c := range cases {
		pct, ok := tailPct(c.n)
		if !near(pct, c.pct) || ok != c.hasTail {
			t.Errorf("tailPct(%d) = %v, %v, want %v, %v", c.n, pct, ok, c.pct, c.hasTail)
		}
		if beyond := float64(c.n) * (1 - pct/100); ok && beyond < minBeyond-1e-6 {
			t.Errorf("tailPct(%d) = %v leaves %.2f samples beyond, want at least %d", c.n, pct, beyond, minBeyond)
		}
		value, at := tail(ramp(c.n))
		if want := 1 + c.pct/100*float64(c.n-1); !near(at, c.pct) || !near(value, want) {
			t.Errorf("tail(1..%d) = %v at p%v, want %v at p%v", c.n, value, at, want, c.pct)
		}
	}
	// p99 is the fixed-name tail: the rule's percentile, but never above 99.
	for n, wantPct := range map[int]float64{5: 50, 20: 50, 200: 95, 1_000: 99, 10_000: 99} {
		if got, want := p99(ramp(n)), 1+wantPct/100*float64(n-1); !near(got, want) {
			t.Errorf("p99(1..%d) = %v, want the p%v value %v", n, got, wantPct, want)
		}
	}
}
