// Scaling sweep: how the algorithms' distance to the LP lower bound
// evolves with instance size. Not a figure in the paper, but the
// natural companion to its §4 discussion — the paper's near-optimality
// claim is made at one scale; this sweep shows the trend.
package experiments

import (
	"fmt"
	"strings"

	"coflow/internal/core"
	"coflow/internal/lpmodel"
	"coflow/internal/online"
	"coflow/internal/trace"
	"coflow/internal/varys"
)

// ScalingAlgorithms are the series evaluated by RunScaling.
var ScalingAlgorithms = []string{"HLP(d)", "Hrho(d)", "online-SEBF", "fluid"}

// ScalingPoint is one sweep point: totals per algorithm, the LP lower
// bound, and the resulting bound ratios.
type ScalingPoint struct {
	Coflows    int
	Ports      int
	Totals     map[string]float64
	LowerBound float64
}

// Ratio returns Totals[name]/LowerBound.
func (p *ScalingPoint) Ratio(name string) float64 {
	return p.Totals[name] / p.LowerBound
}

// ScalingReport is the full sweep.
type ScalingReport struct {
	Points []ScalingPoint
}

// RunScaling evaluates the series at each coflow count in sizes,
// holding the fabric and distribution fixed. Points run concurrently.
func RunScaling(tr trace.Config, sizes []int, weightSeed int64) (*ScalingReport, error) {
	if len(sizes) == 0 {
		return nil, fmt.Errorf("experiments: no sweep sizes")
	}
	rep := &ScalingReport{Points: make([]ScalingPoint, len(sizes))}
	err := parallel(len(sizes), func(i int) error {
		pt, err := scalingPoint(tr, sizes[i], weightSeed)
		if err != nil {
			return fmt.Errorf("experiments: sweep point n=%d: %w", sizes[i], err)
		}
		rep.Points[i] = *pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

func scalingPoint(tr trace.Config, n int, weightSeed int64) (*ScalingPoint, error) {
	cfg := tr
	cfg.NumCoflows = n
	ins, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	applyWeighting(ins, RandomWeights, weightSeed)

	sol, err := lpmodel.SolveIntervalLP(ins)
	if err != nil {
		return nil, err
	}
	pt := &ScalingPoint{
		Coflows:    len(ins.Coflows),
		Ports:      ins.Ports,
		Totals:     map[string]float64{},
		LowerBound: sol.LowerBound,
	}

	hlp, err := core.ExecuteOrdered(ins, sol.Order, core.Options{Grouping: true, Backfill: true})
	if err != nil {
		return nil, err
	}
	pt.Totals["HLP(d)"] = hlp.TotalWeighted

	hrho, err := core.ExecuteOrdered(ins, core.LoadWeightOrder(ins), core.Options{Grouping: true, Backfill: true})
	if err != nil {
		return nil, err
	}
	pt.Totals["Hrho(d)"] = hrho.TotalWeighted

	ol, err := online.Simulate(ins, online.SEBF)
	if err != nil {
		return nil, err
	}
	pt.Totals["online-SEBF"] = ol.TotalWeighted

	fl, err := varys.Simulate(ins)
	if err != nil {
		return nil, err
	}
	pt.Totals["fluid"] = fl.TotalWeighted
	return pt, nil
}

// Format renders the sweep as ratios to the LP lower bound.
func (r *ScalingReport) Format() string {
	var b strings.Builder
	b.WriteString("Scaling sweep — total weighted completion time / interval-LP lower bound\n")
	fmt.Fprintf(&b, "%8s %8s", "coflows", "ports")
	for _, name := range ScalingAlgorithms {
		fmt.Fprintf(&b, " %12s", name)
	}
	b.WriteByte('\n')
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%8d %8d", pt.Coflows, pt.Ports)
		for _, name := range ScalingAlgorithms {
			fmt.Fprintf(&b, " %12.3f", pt.Ratio(name))
		}
		b.WriteByte('\n')
	}
	b.WriteString("(lower is better; 1.000 would meet the LP bound, which itself sits below OPT)\n")
	return b.String()
}
