package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile; maxTailPct caps the percentile so a very long run does
// not report an extreme the next run cannot reproduce.
const (
	minBeyond  = 10
	maxTailPct = 99.9
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of ascending s by linear
// interpolation between closest ranks, or 0 for an empty sample.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median returns the median of xs (unsorted), or 0 when empty.
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// quartiles returns the first and third quartile of xs by the
// exclusive method, the one Python's statistics.quantiles(xs, n=4)
// uses, so spreads computed here match the ones the contract's
// checker computes. It needs two samples; fewer return (0, 0).
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return 0, 0
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of its median:
// the steadiness figure the contract bounds. Zero when undefined.
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// tailPct is the one rule every workload reports its tail by: the
// highest percentile (capped at maxTailPct) that still has at least
// minBeyond samples beyond it. ok is false when even the median has
// fewer than that, and the sample has no tail worth the name.
func tailPct(n int) (pct float64, ok bool) {
	if n < 2*minBeyond {
		return 50, false
	}
	pct = 100 * float64(n-minBeyond) / float64(n)
	if pct > maxTailPct {
		pct = maxTailPct
	}
	return pct, true
}

// tail returns the sample's tail value under tailPct and the
// percentile it was read at; a sample too small for a tail reports
// its median.
func tail(xs []float64) (value, pct float64) {
	pct, _ = tailPct(len(xs))
	return quantile(sorted(xs), pct/100), pct
}

// p99 is the fixed-name tail of the per-layer metrics: the 99th
// percentile, lowered to the tailPct percentile on samples too small
// to have ten values beyond it.
func p99(xs []float64) float64 {
	pct, _ := tailPct(len(xs))
	return quantile(sorted(xs), math.Min(pct, 99)/100)
}

// finite reports whether v is a usable metric value.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
