// Package primaldual implements an LP-free coflow ordering based on
// the primal-dual algorithm of Mastrolilli, Queyranne, Schulz,
// Svensson and Uhan for concurrent open shop ("Minimizing the sum of
// weighted completion times in a concurrent open shop", OR Letters
// 2010), which the paper's conclusion singles out as the natural route
// to simpler, distributed coflow schedulers.
//
// The rule builds the permutation from last to first. With coflows
// still unordered forming a set S:
//
//  1. find the bottleneck port i* — the ingress or egress port with
//     the largest total remaining load over S;
//  2. schedule last the coflow k ∈ S with positive load on i*
//     minimizing w_k / load_{i*}(k) (delaying it costs the least per
//     unit of bottleneck work it removes);
//  3. remove k and repeat.
//
// The published algorithm also lowers each remaining weight after every
// pick (w_j ← w_j − θ·p_{i*j}, θ the picked coflow's ratio); this rule
// omits that update, so its 2-approximation guarantee on concurrent
// open shop with zero release dates does not carry over. It is a
// heuristic ordering that needs no LP solve, making it a natural
// ablation partner for H_LP.
package primaldual

import (
	"coflow/internal/coflowmodel"
)

// Order returns the primal-dual coflow ordering (indices into
// ins.Coflows, first to last). It is deterministic: ties break on
// coflow ID.
func Order(ins *coflowmodel.Instance) []int {
	m := ins.Ports
	n := len(ins.Coflows)

	// Per-coflow port loads.
	rowLoad := make([][]int64, n)
	colLoad := make([][]int64, n)
	for k := range ins.Coflows {
		rowLoad[k] = ins.Coflows[k].RowLoads(m)
		colLoad[k] = ins.Coflows[k].ColLoads(m)
	}

	// Remaining total load per port over the unordered set.
	rows := make([]int64, m)
	cols := make([]int64, m)
	for k := 0; k < n; k++ {
		for i := 0; i < m; i++ {
			rows[i] += rowLoad[k][i]
			cols[i] += colLoad[k][i]
		}
	}

	inSet := make([]bool, n)
	for k := range inSet {
		inSet[k] = true
	}
	order := make([]int, n)

	for pos := n - 1; pos >= 0; pos-- {
		// Bottleneck port over the remaining set.
		bestPort, bestIsRow, bestLoad := -1, true, int64(-1)
		for i := 0; i < m; i++ {
			if rows[i] > bestLoad {
				bestPort, bestIsRow, bestLoad = i, true, rows[i]
			}
			if cols[i] > bestLoad {
				bestPort, bestIsRow, bestLoad = i, false, cols[i]
			}
		}

		chosen := -1
		if bestLoad > 0 {
			// Min w_k / load(k) on the bottleneck, over coflows that
			// actually load it. Compare with cross-multiplication to
			// stay in exact arithmetic.
			var cw float64
			var cl int64
			for k := 0; k < n; k++ {
				if !inSet[k] {
					continue
				}
				var l int64
				if bestIsRow {
					l = rowLoad[k][bestPort]
				} else {
					l = colLoad[k][bestPort]
				}
				if l == 0 {
					continue
				}
				w := ins.Coflows[k].Weight
				// w/l < cw/cl  ⟺  w·cl < cw·l
				if chosen < 0 || w*float64(cl) < cw*float64(l) ||
					(w*float64(cl) == cw*float64(l) && ins.Coflows[k].ID > ins.Coflows[chosen].ID) {
					chosen, cw, cl = k, w, l
				}
			}
		}
		if chosen < 0 {
			// No load anywhere (all remaining coflows empty): take the
			// largest ID so empty coflows sink to the back.
			for k := 0; k < n; k++ {
				if inSet[k] && (chosen < 0 || ins.Coflows[k].ID > ins.Coflows[chosen].ID) {
					chosen = k
				}
			}
		}

		order[pos] = chosen
		inSet[chosen] = false
		for i := 0; i < m; i++ {
			rows[i] -= rowLoad[chosen][i]
			cols[i] -= colLoad[chosen][i]
		}
	}
	return order
}
