// Arrival sweep: the paper's theory distinguishes itself by handling
// release dates (Theorem 1/2 versus Corollary 1/2), but its
// experiments set r_k = 0. This sweep fills that gap: it varies the
// mean coflow interarrival time from batch (0) to sparse and compares
// the release-aware algorithms, verifying the Proposition 1 guarantee
// on every run.
package experiments

import (
	"fmt"
	"strings"

	"coflow/internal/core"
	"coflow/internal/online"
	"coflow/internal/trace"
)

// ArrivalPoint is one sweep point.
type ArrivalPoint struct {
	MeanInterarrival float64
	MaxRelease       int64
	Totals           map[string]float64
	// Prop1Satisfied reports whether every Algorithm 2 completion met
	// the Eq. 19 bound (it must).
	Prop1Satisfied bool
}

// ArrivalAlgorithms are the series evaluated by RunArrivalSweep.
var ArrivalAlgorithms = []string{"Algorithm2", "HLP(d)", "online-SEBF", "online-FIFO"}

// ArrivalReport is the full sweep.
type ArrivalReport struct {
	Coflows int
	Points  []ArrivalPoint
}

// RunArrivalSweep evaluates the algorithms at each mean interarrival
// gap (0 = the paper's batch setting). Points run concurrently.
func RunArrivalSweep(tr trace.Config, gaps []float64, weightSeed int64) (*ArrivalReport, error) {
	if len(gaps) == 0 {
		return nil, fmt.Errorf("experiments: no arrival gaps")
	}
	rep := &ArrivalReport{Points: make([]ArrivalPoint, len(gaps))}
	err := parallel(len(gaps), func(i int) error {
		pt, n, err := arrivalPoint(tr, gaps[i], weightSeed)
		if err != nil {
			return fmt.Errorf("experiments: arrival sweep gap=%g: %w", gaps[i], err)
		}
		rep.Points[i] = *pt
		if i == 0 { // every point draws the same number of coflows
			rep.Coflows = n
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func arrivalPoint(tr trace.Config, gap float64, weightSeed int64) (*ArrivalPoint, int, error) {
	cfg := tr
	cfg.MeanInterarrival = gap
	ins, err := trace.Generate(cfg)
	if err != nil {
		return nil, 0, err
	}
	applyWeighting(ins, RandomWeights, weightSeed)
	pt := &ArrivalPoint{
		MeanInterarrival: gap,
		MaxRelease:       ins.MaxRelease(),
		Totals:           map[string]float64{},
	}

	alg2, err := core.Algorithm2(ins)
	if err != nil {
		return nil, 0, err
	}
	pt.Totals["Algorithm2"] = alg2.TotalWeighted
	pt.Prop1Satisfied = true
	bound := core.Proposition1Bound(ins, alg2.Order, alg2.Stages, alg2.V)
	for pos, k := range alg2.Order {
		if alg2.Completion[k] > bound[pos] {
			pt.Prop1Satisfied = false
		}
	}

	hlpd, err := core.ExecuteOrdered(ins, alg2.Order, core.Options{Grouping: true, Backfill: true})
	if err != nil {
		return nil, 0, err
	}
	pt.Totals["HLP(d)"] = hlpd.TotalWeighted

	for name, policy := range map[string]online.Policy{
		"online-SEBF": online.SEBF,
		"online-FIFO": online.FIFO,
	} {
		res, err := online.Simulate(ins, policy)
		if err != nil {
			return nil, 0, err
		}
		pt.Totals[name] = res.TotalWeighted
	}
	return pt, len(ins.Coflows), nil
}

// Format renders the sweep, normalizing each row by its online-SEBF
// total so rows with different horizons stay comparable.
func (r *ArrivalReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Arrival sweep — %d coflows; totals normalized per-row to online-SEBF\n", r.Coflows)
	fmt.Fprintf(&b, "%12s %12s", "mean gap", "max release")
	for _, name := range ArrivalAlgorithms {
		fmt.Fprintf(&b, " %12s", name)
	}
	fmt.Fprintf(&b, " %8s\n", "Prop.1")
	for _, pt := range r.Points {
		base := pt.Totals["online-SEBF"]
		fmt.Fprintf(&b, "%12g %12d", pt.MeanInterarrival, pt.MaxRelease)
		for _, name := range ArrivalAlgorithms {
			fmt.Fprintf(&b, " %12.3f", pt.Totals[name]/base)
		}
		ok := "OK"
		if !pt.Prop1Satisfied {
			ok = "VIOLATED"
		}
		fmt.Fprintf(&b, " %8s\n", ok)
	}
	b.WriteString("(gap 0 is the paper's batch setting; Prop.1 is the Eq. 19 guarantee check)\n")
	return b.String()
}
