package bvn

import "fmt"

// Strategy selects how Step 2 of Algorithm 1 extracts matchings. Both
// strategies satisfy Lemma 4 exactly (Σq_u = ρ, ≤ m² terms); they
// differ in how many terms they typically produce, which matters when
// each distinct matching is a reconfiguration of a physical fabric.
type Strategy int

const (
	// StrategyFirst extracts any perfect matching on the support (the
	// paper's Algorithm 1 as written).
	StrategyFirst Strategy = iota
	// StrategyThick extracts a bottleneck matching: the perfect
	// matching whose minimum entry is as large as possible, found by
	// binary search over entry thresholds. Each term then carries the
	// largest possible multiplicity, so fewer terms are emitted.
	StrategyThick
)

func (s Strategy) String() string {
	switch s {
	case StrategyFirst:
		return "first"
	case StrategyThick:
		return "thick"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}
