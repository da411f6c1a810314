// Package stats provides the summary statistics used when reporting
// schedules: distribution summaries (mean/percentiles) and coflow
// slowdowns. The slowdown of a coflow is C_k / (r_k + ρ_k) — its
// completion time over the best it could possibly achieve alone in
// the fabric — a standard quality metric in the coflow literature.
package stats

import (
	"fmt"
	"math"
	"sort"

	"coflow/internal/coflowmodel"
)

// Summary describes a distribution of non-negative values.
type Summary struct {
	Count         int
	Mean          float64
	P50, P90, P99 float64
	Min, Max      float64
	StdDev        float64
}

// Summarize computes a Summary of values. An empty input yields the
// zero Summary.
func Summarize(values []float64) Summary {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return summarizeSorted(sorted)
}

// summarizeSorted is Summarize of values already in ascending order.
// Rolling calls it on its sorted mirror, so the sums run in the same
// order either way and the two agree to the last bit.
//
//coflow:allocfree
func summarizeSorted(sorted []float64) Summary {
	if len(sorted) == 0 {
		return Summary{}
	}
	var sum, sq float64
	for _, v := range sorted {
		sum += v
		sq += v * v
	}
	n := float64(len(sorted))
	mean := sum / n
	variance := sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		Count:  len(sorted),
		Mean:   mean,
		P50:    percentile(sorted, 0.50),
		P90:    percentile(sorted, 0.90),
		P99:    percentile(sorted, 0.99),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		StdDev: math.Sqrt(variance),
	}
}

// percentile returns the nearest-rank percentile of sorted values.
//
//coflow:allocfree
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Slowdowns returns, per coflow, C_k / (r_k + ρ_k). Empty coflows
// (no demand) are reported as 1 exactly. It panics if the completion
// vector's length differs from the instance's coflow count.
func Slowdowns(ins *coflowmodel.Instance, completion []int64) []float64 {
	if len(completion) != len(ins.Coflows) {
		panic(fmt.Sprintf("stats: %d completions for %d coflows", len(completion), len(ins.Coflows)))
	}
	out := make([]float64, len(completion))
	for k := range ins.Coflows {
		c := &ins.Coflows[k]
		ideal := c.Release + c.Load(ins.Ports)
		if ideal == 0 {
			out[k] = 1
			continue
		}
		out[k] = float64(completion[k]) / float64(ideal)
	}
	return out
}

// SlowdownSummary is Summarize over Slowdowns.
func SlowdownSummary(ins *coflowmodel.Instance, completion []int64) Summary {
	return Summarize(Slowdowns(ins, completion))
}

// Format renders the summary on one line.
func (s Summary) Format() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%.2f p50=%.2f p90=%.2f p99=%.2f max=%.2f",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max)
}
