// Command experiments regenerates the paper's evaluation artifacts on
// the synthetic trace:
//
//	experiments table1      — Table 1 (all filters, weightings, algorithms)
//	experiments fig2a       — Figure 2a (grouping/backfilling impact)
//	experiments fig2b       — Figure 2b (ordering comparison, case (d))
//	experiments lowerbound  — §4.2 LP-EXP lower-bound ratio
//	experiments all         — everything above
//
// Shared flags:
//
//	-ports N     switch size (default 50; use 150 for paper scale)
//	-coflows N   coflows to generate (default 120)
//	-seed S      trace seed
//	-filters a,b,c  M0 thresholds (default 50,40,30)
//	-recompute   enable the work-conserving scheduling extension
//	-obsjson F   write per-stage pipeline timings as JSON to F (- for stdout)
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"coflow/internal/experiments"
	"coflow/internal/lp"
	"coflow/internal/obs"
	"coflow/internal/online"
	"coflow/internal/switchsim"
	"coflow/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	if len(os.Args) < 2 {
		usage()
	}
	sub := os.Args[1]
	cfg, obsJSON, err := parseArgs(os.Args[2:])
	if err != nil {
		log.Fatal(err)
	}

	if obsJSON != "" {
		reg := obs.NewRegistry()
		lp.SetObs(lp.NewObs(reg))
		switchsim.SetObs(switchsim.NewObs(reg))
		online.SetDefaultObs(online.NewObs(reg))
		defer writeObsJSON(reg, obsJSON)
	}

	switch sub {
	case "table1":
		fmt.Print(mustReport(cfg).FormatTable1())
	case "fig2a":
		out, err := mustReport(cfg).FormatFig2a()
		fail(err)
		fmt.Print(out)
	case "fig2b":
		out, err := mustReport(cfg).FormatFig2b()
		fail(err)
		fmt.Print(out)
	case "lowerbound":
		out, err := lowerBound(cfg)
		fail(err)
		fmt.Print(out)
	case "extensions":
		rep, err := experiments.RunExtensions(cfg)
		fail(err)
		fmt.Print(rep.Format())
	case "scaling":
		rep, err := experiments.RunScaling(cfg.Trace, scalingSizes(cfg.Trace.NumCoflows), cfg.WeightSeed)
		fail(err)
		fmt.Print(rep.Format())
	case "arrivals":
		rep, err := experiments.RunArrivalSweep(cfg.Trace, []float64{0, 2, 8, 32, 128}, cfg.WeightSeed)
		fail(err)
		fmt.Print(rep.Format())
	case "all":
		fail(writeAll(os.Stdout, cfg))
	default:
		usage()
	}
}

// parseArgs reads the shared flags into an experiment configuration
// and the -obsjson destination ("" when off).
func parseArgs(args []string) (experiments.Config, string, error) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	ports := fs.Int("ports", 50, "switch size m (150 = paper scale; slower LP)")
	coflows := fs.Int("coflows", 120, "number of generated coflows")
	seed := fs.Int64("seed", 1, "trace seed")
	filtersArg := fs.String("filters", "50,40,30", "comma-separated M0 thresholds")
	recompute := fs.Bool("recompute", false, "work-conserving scheduling extension")
	weightSeed := fs.Int64("weightseed", 7, "seed for the random-permutation weighting")
	obsJSON := fs.String("obsjson", "", "instrument the pipeline and write per-stage timings as JSON to this file (- for stdout)")
	if err := fs.Parse(args); err != nil {
		return experiments.Config{}, "", err
	}
	filters, err := parseFilters(*filtersArg)
	if err != nil {
		return experiments.Config{}, "", err
	}
	cfg := experiments.DefaultConfig()
	cfg.Trace.Ports = *ports
	cfg.Trace.NumCoflows = *coflows
	cfg.Trace.Seed = *seed
	cfg.Filters = filters
	cfg.Recompute = *recompute
	cfg.WeightSeed = *weightSeed
	return cfg, *obsJSON, nil
}

// writeAll prints every artifact of `experiments all` to w: Table 1,
// Figures 2a and 2b, the §4.2 lower bound and the extensions table,
// separated by blank lines.
func writeAll(w io.Writer, cfg experiments.Config) error {
	rep, err := experiments.Run(cfg)
	if err != nil {
		return err
	}
	fig2a, err := rep.FormatFig2a()
	if err != nil {
		return err
	}
	fig2b, err := rep.FormatFig2b()
	if err != nil {
		return err
	}
	lb, err := lowerBound(cfg)
	if err != nil {
		return err
	}
	ext, err := experiments.RunExtensions(cfg)
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(w, rep.FormatTable1(), "\n", fig2a, "\n", fig2b, "\n", lb, "\n", ext.Format())
	return err
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: experiments {table1|fig2a|fig2b|lowerbound|extensions|scaling|arrivals|all} [flags]")
	os.Exit(2)
}

// scalingSizes sweeps powers of two up to the configured coflow count.
func scalingSizes(max int) []int {
	var sizes []int
	for n := 8; n < max; n *= 2 {
		sizes = append(sizes, n)
	}
	return append(sizes, max)
}

func fail(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// writeObsJSON dumps the collected stage timings (-obsjson).
func writeObsJSON(reg *obs.Registry, path string) {
	if path == "-" {
		fail(reg.WriteJSON(os.Stdout))
		return
	}
	f, err := os.Create(path)
	fail(err)
	if err := reg.WriteJSON(f); err != nil {
		// Already failing: the write error wins over the close error.
		_ = f.Close()
		fail(err)
	}
	fail(f.Close())
}

func mustReport(cfg experiments.Config) *experiments.Report {
	rep, err := experiments.Run(cfg)
	fail(err)
	return rep
}

// lowerBound uses a reduced-scale trace so the time-indexed LP-EXP
// stays tractable (the paper itself solved it only once for the same
// reason); only the seeds come from cfg.
func lowerBound(cfg experiments.Config) (string, error) {
	tr := trace.DefaultConfig()
	tr.Ports = 10
	tr.NumCoflows = 10
	tr.MaxFlowSize = 10
	tr.Seed = cfg.Trace.Seed
	res, err := experiments.RunLowerBound(tr, cfg.WeightSeed)
	if err != nil {
		return "", err
	}
	return res.Format(), nil
}

func parseFilters(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad filter %q", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no filters given")
	}
	return out, nil
}
