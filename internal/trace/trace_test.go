package trace

import (
	"testing"

	"coflow/internal/coflowmodel"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := BenchConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	mods := map[string]func(*Config){
		"ports":    func(c *Config) { c.Ports = 0 },
		"coflows":  func(c *Config) { c.NumCoflows = 0 },
		"fraction": func(c *Config) { c.NarrowFraction = 0.9; c.WideFraction = 0.5 },
		"negfrac":  func(c *Config) { c.NarrowFraction = -0.1 },
		"maxflow":  func(c *Config) { c.MaxFlowSize = 0 },
		"alpha":    func(c *Config) { c.ParetoAlpha = 0 },
		"arrival":  func(c *Config) { c.MeanInterarrival = -1 },
	}
	for name, mod := range mods {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := BenchConfig()
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	if len(a.Coflows) != len(b.Coflows) {
		t.Fatal("coflow counts differ across identical seeds")
	}
	for k := range a.Coflows {
		if len(a.Coflows[k].Flows) != len(b.Coflows[k].Flows) {
			t.Fatalf("coflow %d flows differ", k)
		}
		for f := range a.Coflows[k].Flows {
			if a.Coflows[k].Flows[f] != b.Coflows[k].Flows[f] {
				t.Fatalf("coflow %d flow %d differs", k, f)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	cfg := BenchConfig()
	a := MustGenerate(cfg)
	cfg.Seed = 2
	b := MustGenerate(cfg)
	if a.TotalWork() == b.TotalWork() {
		t.Fatal("different seeds produced identical workloads (suspicious)")
	}
}

func TestGenerateValidAndNonEmpty(t *testing.T) {
	ins := MustGenerate(BenchConfig())
	if err := ins.Validate(); err != nil {
		t.Fatal(err)
	}
	for k := range ins.Coflows {
		if ins.Coflows[k].TotalSize() == 0 {
			t.Fatalf("coflow %d has no data", k)
		}
	}
	if ins.MaxRelease() != 0 {
		t.Fatal("default config must release everything at 0")
	}
}

// TestGenerateZeroFlowBackfill drives the len(c.Flows)==0 backfill
// branch: on a 1-port switch every coflow samples exactly one (src,
// dst) pair, and ~10% of pairs draw size 0 (sparse shuffles), so with
// hundreds of coflows some need the single-unit backfill. The
// generator must never emit an empty coflow — downstream schedulers
// treat zero demand as complete-at-release and the LP ordering
// assumes positive loads.
func TestGenerateZeroFlowBackfill(t *testing.T) {
	cfg := Config{
		Ports: 1, NumCoflows: 200, Seed: 5,
		MaxFlowSize: 10, ParetoAlpha: 1.26,
	}
	ins := MustGenerate(cfg)
	backfilled := 0
	for k := range ins.Coflows {
		c := &ins.Coflows[k]
		if len(c.Flows) == 0 || c.TotalSize() == 0 {
			t.Fatalf("coflow %d empty despite backfill", k)
		}
		for _, f := range c.Flows {
			if f.Size < 1 {
				t.Fatalf("coflow %d has zero-size flow", k)
			}
		}
		// On 1 port a backfilled coflow is exactly one unit flow; a
		// Pareto draw of 1 looks the same, so this only bounds below.
		if len(c.Flows) == 1 && c.Flows[0].Size == 1 {
			backfilled++
		}
	}
	// P(no zero-size draw in 200 pairs) ≈ 0.9^200 < 1e-9, so at least
	// one single-unit coflow exists with this (deterministic) seed.
	if backfilled == 0 {
		t.Fatal("no single-unit coflows: backfill branch not reached")
	}
}

func TestGenerateWidthMixture(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCoflows = 400
	ins := MustGenerate(cfg)
	st := Summarize(ins)
	// The published shape: roughly a quarter fully narrow (both sides
	// ≤ 4 requires narrow draws on both), some wide coflows present.
	if st.NarrowCount < ins.Ports/10 {
		t.Fatalf("almost no narrow coflows: %+v", st)
	}
	if st.WideCount == 0 {
		t.Fatalf("no wide coflows: %+v", st)
	}
	if st.MeanFlows <= 1 {
		t.Fatalf("degenerate flow counts: %+v", st)
	}
}

func TestGenerateReleases(t *testing.T) {
	cfg := BenchConfig()
	cfg.MeanInterarrival = 10
	ins := MustGenerate(cfg)
	if ins.MaxRelease() == 0 {
		t.Fatal("interarrival configured but all releases are 0")
	}
	// Releases are nondecreasing in ID order.
	var prev int64
	for _, c := range ins.Coflows {
		if c.Release < prev {
			t.Fatal("releases not nondecreasing")
		}
		prev = c.Release
	}
}

func TestFilteringMatchesPaperSetup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumCoflows = 300
	ins := MustGenerate(cfg)
	f50 := ins.FilterMinFlows(50)
	f40 := ins.FilterMinFlows(40)
	f30 := ins.FilterMinFlows(30)
	if len(f50.Coflows) == 0 {
		t.Fatal("no coflows survive M0 >= 50; generator shape wrong")
	}
	if !(len(f50.Coflows) <= len(f40.Coflows) && len(f40.Coflows) <= len(f30.Coflows)) {
		t.Fatalf("filter monotonicity broken: %d/%d/%d",
			len(f50.Coflows), len(f40.Coflows), len(f30.Coflows))
	}
	for k := range f50.Coflows {
		if f50.Coflows[k].NonZeroFlows() < 50 {
			t.Fatal("filter kept an undersized coflow")
		}
	}
}

func TestFlowSizeDistribution(t *testing.T) {
	cfg := BenchConfig()
	cfg.NumCoflows = 200
	ins := MustGenerate(cfg)
	var small, large, total int64
	for k := range ins.Coflows {
		for _, f := range ins.Coflows[k].Flows {
			total++
			if f.Size <= 2 {
				small++
			}
			if f.Size >= cfg.MaxFlowSize/2 {
				large++
			}
			if f.Size > cfg.MaxFlowSize {
				t.Fatalf("flow size %d exceeds cap", f.Size)
			}
		}
	}
	if small*2 < total {
		t.Fatalf("Pareto tail wrong: only %d/%d small flows", small, total)
	}
	if large == 0 {
		t.Fatal("no large flows at all; tail too light")
	}
}

func TestSummarizeCounts(t *testing.T) {
	ins := MustGenerate(BenchConfig())
	st := Summarize(ins)
	if st.Coflows != len(ins.Coflows) || st.Ports != ins.Ports {
		t.Fatalf("bad summary: %+v", st)
	}
	if st.TotalUnits != ins.TotalWork() {
		t.Fatalf("TotalUnits %d != TotalWork %d", st.TotalUnits, ins.TotalWork())
	}
	if st.MaxLoad <= 0 || st.MaxLoad > st.TotalUnits {
		t.Fatalf("MaxLoad %d out of range", st.MaxLoad)
	}
}

// TestConfigWidthBounds: the width-band edge cases the scenario
// engine exposes — bounds beyond the port count or inverted — are
// rejected, not silently generated.
func TestConfigWidthBounds(t *testing.T) {
	mods := map[string]func(*Config){
		"neg-min":      func(c *Config) { c.MinWidth = -1 },
		"neg-max":      func(c *Config) { c.MaxWidth = -1 },
		"min-gt-ports": func(c *Config) { c.MinWidth = c.Ports + 1 },
		"max-gt-ports": func(c *Config) { c.MaxWidth = c.Ports + 1 },
		"min-gt-max":   func(c *Config) { c.MinWidth = 4; c.MaxWidth = 2 },
	}
	for name, mod := range mods {
		cfg := DefaultConfig()
		mod(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// TestGenerateWidthClamped: MinWidth/MaxWidth clamp every shuffle
// side; MaxWidth 1 builds single-flow convoys, MinWidth Ports builds
// all-to-all storms, and a width can never exceed the fabric.
func TestGenerateWidthClamped(t *testing.T) {
	cfg := BenchConfig()
	cfg.NumCoflows = 60
	cfg.MaxWidth = 1
	for _, c := range MustGenerate(cfg).Coflows {
		if in, out := c.Width(); in > 1 || out > 1 {
			t.Fatalf("coflow %d width %dx%d with MaxWidth 1", c.ID, in, out)
		}
	}
	cfg = BenchConfig()
	cfg.NumCoflows = 10
	cfg.MinWidth = cfg.Ports
	for _, c := range MustGenerate(cfg).Coflows {
		// Zeroed pairs (sparse shuffles) can narrow the realized width,
		// but each side must reach well past any sampled narrow band.
		if in, out := c.Width(); in < cfg.Ports/2 || out < cfg.Ports/2 {
			t.Fatalf("coflow %d width %dx%d with MinWidth %d", c.ID, in, out, cfg.Ports)
		}
	}
	cfg = BenchConfig()
	cfg.Ports = 2
	cfg.NumCoflows = 40
	for _, c := range MustGenerate(cfg).Coflows {
		if in, out := c.Width(); in > 2 || out > 2 {
			t.Fatalf("coflow %d width %dx%d exceeds 2 ports", c.ID, in, out)
		}
	}
}

// TestSummarizeEmpty: nil and empty instances summarize to the zero
// Stats instead of panicking or dividing by zero.
func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Stats{}) {
		t.Fatalf("Summarize(nil) = %+v, want zero", s)
	}
	if s := Summarize(&coflowmodel.Instance{}); s != (Stats{}) {
		t.Fatalf("Summarize(empty) = %+v, want zero", s)
	}
}

// TestSummarizeWideThresholdTinyFabric: on a 2-port fabric Ports/3 is
// 0, and the pre-fix Summarize counted every coflow — even a single
// 1×1 flow — as wide. The floor of 2 keeps wide meaning "spans the
// fabric".
func TestSummarizeWideThresholdTinyFabric(t *testing.T) {
	ins := &coflowmodel.Instance{
		Ports: 2,
		Coflows: []coflowmodel.Coflow{
			{ID: 1, Weight: 1, Flows: []coflowmodel.Flow{{Src: 0, Dst: 1, Size: 3}}},
			{ID: 2, Weight: 1, Flows: []coflowmodel.Flow{
				{Src: 0, Dst: 0, Size: 1}, {Src: 0, Dst: 1, Size: 1},
				{Src: 1, Dst: 0, Size: 1}, {Src: 1, Dst: 1, Size: 1},
			}},
		},
	}
	s := Summarize(ins)
	if s.WideCount != 1 {
		t.Fatalf("WideCount = %d, want 1 (only the all-to-all coflow)", s.WideCount)
	}
	if s.NarrowCount != 2 {
		t.Fatalf("NarrowCount = %d, want 2", s.NarrowCount)
	}
}
