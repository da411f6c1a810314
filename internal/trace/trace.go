// Package trace generates synthetic Hive/MapReduce coflow workloads
// calibrated to the published statistics of the Facebook trace used in
// the paper's §4 (and in Chowdhury et al., SIGCOMM'14): a 150-rack
// cluster modeled as a 150×150 switch with 1 MB-per-time-unit ports,
// heavy-tailed coflow widths (about half the coflows are narrow, a few
// are cluster-wide), and skewed flow sizes with most bytes carried by
// a minority of large flows.
//
// The original trace is proprietary; this generator is the
// substitution documented in DESIGN.md. All experiments compare
// algorithms on identical generated instances, so the paper's
// relative findings are preserved. Generation is deterministic in the
// seed.
package trace

import (
	"fmt"
	"math"
	"math/rand"

	"coflow/internal/coflowmodel"
)

// Config controls the generator. The zero value is not valid; use
// DefaultConfig and override fields.
type Config struct {
	// Ports is the switch size m (the paper's cluster has 150 racks).
	Ports int
	// NumCoflows is the number of coflows to generate.
	NumCoflows int
	// Seed makes generation reproducible.
	Seed int64

	// NarrowFraction of coflows have ≤ 4 mappers and reducers
	// (the SIGCOMM'14 analysis reports ~52%).
	NarrowFraction float64
	// WideFraction of coflows span at least a third of the fabric;
	// the remainder are mid-sized.
	WideFraction float64
	// MaxFlowSize caps a single flow's size in data units (MB).
	MaxFlowSize int64
	// ParetoAlpha shapes the flow size distribution (smaller = heavier
	// tail).
	ParetoAlpha float64
	// MeanInterarrival, when positive, draws release dates from a
	// Poisson process with this mean gap (in time units). Zero gives
	// the paper's experimental setting: all coflows released at 0.
	MeanInterarrival float64

	// MinWidth and MaxWidth, when positive, clamp the sampled number
	// of ports per shuffle side. Zero leaves the published width
	// distribution untouched. Only tests set them today (convoys with
	// MaxWidth: 1, all-to-all storms with MinWidth: Ports); the
	// scenario engine has its own Shape.MaxWidth and does not import
	// this package.
	MinWidth int
	MaxWidth int
}

// DefaultConfig returns the paper-scale configuration (150 ports)
// with the published distribution shape.
func DefaultConfig() Config {
	return Config{
		Ports:          150,
		NumCoflows:     300,
		Seed:           1,
		NarrowFraction: 0.52,
		WideFraction:   0.16,
		MaxFlowSize:    1000,
		ParetoAlpha:    1.26,
	}
}

// BenchConfig returns a scaled-down configuration (50 ports) whose LP
// solves in seconds; the distribution shape is unchanged.
func BenchConfig() Config {
	cfg := DefaultConfig()
	cfg.Ports = 50
	cfg.NumCoflows = 120
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Ports <= 0 {
		return fmt.Errorf("trace: non-positive port count %d", c.Ports)
	}
	if c.NumCoflows <= 0 {
		return fmt.Errorf("trace: non-positive coflow count %d", c.NumCoflows)
	}
	if c.NarrowFraction < 0 || c.WideFraction < 0 || c.NarrowFraction+c.WideFraction > 1 {
		return fmt.Errorf("trace: invalid width fractions %g/%g", c.NarrowFraction, c.WideFraction)
	}
	if c.MaxFlowSize < 1 {
		return fmt.Errorf("trace: MaxFlowSize %d < 1", c.MaxFlowSize)
	}
	if c.ParetoAlpha <= 0 {
		return fmt.Errorf("trace: ParetoAlpha %g must be positive", c.ParetoAlpha)
	}
	if c.MeanInterarrival < 0 {
		return fmt.Errorf("trace: negative MeanInterarrival %g", c.MeanInterarrival)
	}
	if c.MinWidth < 0 || c.MaxWidth < 0 {
		return fmt.Errorf("trace: negative width bounds %d/%d", c.MinWidth, c.MaxWidth)
	}
	if c.MinWidth > c.Ports {
		return fmt.Errorf("trace: MinWidth %d exceeds %d ports", c.MinWidth, c.Ports)
	}
	if c.MaxWidth > c.Ports {
		return fmt.Errorf("trace: MaxWidth %d exceeds %d ports", c.MaxWidth, c.Ports)
	}
	if c.MaxWidth > 0 && c.MinWidth > c.MaxWidth {
		return fmt.Errorf("trace: MinWidth %d exceeds MaxWidth %d", c.MinWidth, c.MaxWidth)
	}
	return nil
}

// Generate produces a synthetic instance. Weights are all 1; use the
// coflowmodel weight helpers to install the experiment weighting.
func Generate(cfg Config) (*coflowmodel.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ins := &coflowmodel.Instance{Ports: cfg.Ports}
	var release int64
	for k := 0; k < cfg.NumCoflows; k++ {
		if cfg.MeanInterarrival > 0 && k > 0 {
			release += int64(math.Round(rng.ExpFloat64() * cfg.MeanInterarrival))
		}
		c := coflowmodel.Coflow{ID: k + 1, Weight: 1, Release: release}
		mappers := samplePorts(rng, cfg, sampleWidth(rng, cfg))
		reducers := samplePorts(rng, cfg, sampleWidth(rng, cfg))
		for _, src := range mappers {
			for _, dst := range reducers {
				size := sampleFlowSize(rng, cfg)
				if size > 0 {
					c.Flows = append(c.Flows, coflowmodel.Flow{Src: src, Dst: dst, Size: size})
				}
			}
		}
		if len(c.Flows) == 0 {
			c.Flows = []coflowmodel.Flow{{Src: rng.Intn(cfg.Ports), Dst: rng.Intn(cfg.Ports), Size: 1}}
		}
		ins.Coflows = append(ins.Coflows, c)
	}
	if err := ins.Validate(); err != nil {
		return nil, fmt.Errorf("trace: generated invalid instance: %w", err)
	}
	return ins, nil
}

// MustGenerate is Generate that panics on error; for benchmarks and
// examples with fixed configs.
func MustGenerate(cfg Config) *coflowmodel.Instance {
	ins, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return ins
}

// sampleWidth draws the number of ports on one side of a shuffle,
// then clamps into the configured [MinWidth, MaxWidth] band and the
// fabric size, so a width can never exceed the port count.
func sampleWidth(rng *rand.Rand, cfg Config) int {
	u := rng.Float64()
	m := cfg.Ports
	var w int
	switch {
	case u < cfg.NarrowFraction:
		w = 1 + rng.Intn(4) // narrow: 1..4
	case u < cfg.NarrowFraction+cfg.WideFraction:
		lo := m / 3
		if lo < 1 {
			lo = 1
		}
		w = lo + rng.Intn(m-lo+1) // wide: m/3..m
	default:
		hi := m / 3
		if hi < 5 {
			hi = min(5, m)
		}
		lo := min(5, hi)
		w = lo + rng.Intn(hi-lo+1) // mid: 5..m/3
	}
	if cfg.MinWidth > 0 && w < cfg.MinWidth {
		w = cfg.MinWidth
	}
	if cfg.MaxWidth > 0 && w > cfg.MaxWidth {
		w = cfg.MaxWidth
	}
	return min(w, m)
}

// samplePorts selects w distinct ports uniformly.
func samplePorts(rng *rand.Rand, cfg Config, w int) []int {
	if w > cfg.Ports {
		w = cfg.Ports
	}
	return rng.Perm(cfg.Ports)[:w]
}

// sampleFlowSize draws an integer flow size from a Pareto distribution
// with shape ParetoAlpha and minimum 1, capped at MaxFlowSize. About
// 10% of pairs carry no data (sparse shuffles), returned as 0.
func sampleFlowSize(rng *rand.Rand, cfg Config) int64 {
	if rng.Float64() < 0.1 {
		return 0
	}
	u := rng.Float64()
	size := int64(math.Ceil(math.Pow(1-u, -1/cfg.ParetoAlpha)))
	if size > cfg.MaxFlowSize {
		size = cfg.MaxFlowSize
	}
	if size < 1 {
		size = 1
	}
	return size
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Stats summarizes an instance for reporting.
type Stats struct {
	Coflows     int
	Ports       int
	TotalUnits  int64
	MaxLoad     int64 // ρ of the summed demand: a makespan lower bound
	NarrowCount int   // coflows with ≤ 4 active ports per side
	WideCount   int   // coflows spanning ≥ max(2, Ports/3) on a side
	MeanFlows   float64
}

// Summarize computes workload statistics. A nil or empty instance
// yields the zero Stats rather than a panic or division by zero.
func Summarize(ins *coflowmodel.Instance) Stats {
	if ins == nil {
		return Stats{}
	}
	s := Stats{Coflows: len(ins.Coflows), Ports: ins.Ports}
	var flows int
	// Floor the wide threshold at 2: on tiny fabrics Ports/3 is 0 and
	// every coflow — including a single 1×1 flow — would count wide.
	wideAt := ins.Ports / 3
	if wideAt < 2 {
		wideAt = 2
	}
	rows := make([]int64, ins.Ports)
	cols := make([]int64, ins.Ports)
	for k := range ins.Coflows {
		c := &ins.Coflows[k]
		s.TotalUnits += c.TotalSize()
		flows += c.NonZeroFlows()
		in, out := c.Width()
		if in <= 4 && out <= 4 {
			s.NarrowCount++
		}
		if in >= wideAt || out >= wideAt {
			s.WideCount++
		}
		for _, f := range c.Flows {
			rows[f.Src] += f.Size
			cols[f.Dst] += f.Size
		}
	}
	for i := 0; i < ins.Ports; i++ {
		if rows[i] > s.MaxLoad {
			s.MaxLoad = rows[i]
		}
		if cols[i] > s.MaxLoad {
			s.MaxLoad = cols[i]
		}
	}
	if s.Coflows > 0 {
		s.MeanFlows = float64(flows) / float64(s.Coflows)
	}
	return s
}
