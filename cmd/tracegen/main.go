// Command tracegen generates a synthetic Facebook-like coflow trace
// (the documented substitution for the paper's proprietary trace) and
// writes it as JSON or in the community coflow-benchmark text format.
//
// Usage:
//
//	tracegen -out trace.json [-format json|bench] [-unitms 7.8125]
//	         [-ports 150] [-coflows 300] [-seed 1] [-maxflow 1000]
//	         [-interarrival 0] [-stats]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"coflow/internal/coflowmodel"
	"coflow/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracegen: ")

	cfg := trace.DefaultConfig()
	out := flag.String("out", "", "output path (default: stdout)")
	format := flag.String("format", "json", "output format: json or bench (community coflow-benchmark)")
	unitMillis := flag.Float64("unitms", 1000.0/128.0, "bench format: milliseconds per time unit")
	flag.IntVar(&cfg.Ports, "ports", cfg.Ports, "switch size m (network ports per side)")
	flag.IntVar(&cfg.NumCoflows, "coflows", cfg.NumCoflows, "number of coflows to generate")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "RNG seed (generation is deterministic)")
	flag.Int64Var(&cfg.MaxFlowSize, "maxflow", cfg.MaxFlowSize, "maximum single-flow size in data units")
	flag.Float64Var(&cfg.MeanInterarrival, "interarrival", cfg.MeanInterarrival,
		"mean coflow interarrival time (0 = all released at time 0)")
	stats := flag.Bool("stats", false, "print workload statistics to stderr")
	flag.Parse()
	// Chosen before -out is created: a typo here must not truncate an
	// existing trace.
	var write func(io.Writer, *coflowmodel.Instance) error
	switch *format {
	case "json":
		write = func(w io.Writer, ins *coflowmodel.Instance) error { return ins.Write(w) }
	case "bench":
		write = func(w io.Writer, ins *coflowmodel.Instance) error {
			return trace.WriteBenchmarkFormat(w, ins, *unitMillis)
		}
	default:
		log.Fatalf("unknown -format %q (want json or bench)", *format)
	}

	ins, err := trace.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *stats {
		s := trace.Summarize(ins)
		fmt.Fprintf(os.Stderr, "coflows=%d ports=%d units=%d maxPortLoad=%d narrow=%d wide=%d meanFlows=%.1f\n",
			s.Coflows, s.Ports, s.TotalUnits, s.MaxLoad, s.NarrowCount, s.WideCount, s.MeanFlows)
	}
	var w *os.File
	if *out == "" {
		w = os.Stdout
	} else {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		w = f
	}
	if err := write(w, ins); err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		// A close error on the output file means lost trace data.
		if err := w.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d coflows to %s\n", len(ins.Coflows), *out)
	}
}
