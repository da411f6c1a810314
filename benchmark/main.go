// Command benchmark is the repository's end-to-end benchmark: five
// named workloads built from a seed, run against the scheduling
// pipeline and the serving core through their exported entry points,
// checked for correct output, and reported as the metrics
// BENCHMARK.json declares. See README.md in this directory.
//
//	go run ./benchmark                                # the whole suite, untraced then traced
//	go run ./benchmark -out set.json -sets 5          # … five times over, kept for -compare
//	go run ./benchmark -workload batch-lp -trace 1    # one run, the driver's contract
//	go run ./benchmark -compare a.json b.json         # apply BENCHMARK.json's bounds
//
// A single run prints its metrics and then, as the last line of
// standard output, one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with -trace 0, the per-layer ones
// with -trace 1. It exits 1 when an operation or output check failed.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	name := flag.String("workload", "", "run this one workload and print its result line (default: the whole suite)")
	seed := flag.Int64("seed", 9, "every input is generated from this seed")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 records spans, runs the shadow passes and reports the per-layer metrics")
	out := flag.String("out", "", "suite: also write every run's result to this file, for -compare")
	sets := flag.Int("sets", 1, "suite: how many times to run every workload")
	compare := flag.Bool("compare", false, "compare two files written with -out: benchmark -compare A.json B.json")
	flag.Parse()

	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace != 0)
	default:
		err = runSuite(*seed, *seconds, *sets, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errFailed marks a run that finished and printed its result, but
// counted failed operations or output checks.
var errFailed = errors.New("operations or output checks failed")

// runOne runs one workload once and prints its report.
func runOne(name string, seed int64, seconds float64, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	rc := &runCtx{seed: seed, seconds: seconds}
	defs := endToEnd
	if traced {
		rc.tr = newTracer()
		defs = perLayer
	}
	o, err := w.run(rc)
	if err != nil {
		return err
	}
	if traced {
		path := filepath.Join("benchmark", "results", "trace-"+name+".json")
		if err := rc.tr.write(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	r := o.build(defs)
	for _, f := range o.failures {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED:", f)
	}
	if err := r.print(os.Stdout, defs); err != nil {
		return err
	}
	if !r.Correct {
		return errFailed
	}
	return nil
}
