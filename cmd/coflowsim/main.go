// Command coflowsim schedules a coflow workload on the simulated m×m
// switch with one of the paper's algorithms and reports completion
// times.
//
// Usage:
//
//	coflowsim [-trace trace.json] [-order HLP|Hrho|HA] [-grouping]
//	          [-backfill] [-recompute] [-randomized] [-seed 1]
//	          [-weights equal|random] [-filter 0] [-lower] [-v] [-obs]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Without -trace a synthetic bench-scale workload is generated.
// -cpuprofile and -memprofile write pprof profiles of the run (see the
// README's "Profiling the schedulers" section for a worked session).
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"coflow"
	"coflow/internal/lp"
	"coflow/internal/obs"
	"coflow/internal/online"
	"coflow/internal/stats"
	"coflow/internal/switchsim"
	"coflow/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("coflowsim: ")

	tracePath := flag.String("trace", "", "trace file (default: generate a bench-scale workload)")
	traceFormat := flag.String("format", "json", "trace file format: json or bench (community coflow-benchmark)")
	unitMillis := flag.Float64("unitms", 1000.0/128.0, "bench format: milliseconds per time unit (paper: 1MB ports => 7.8125)")
	engine := flag.String("engine", "bvn", "scheduling engine: bvn (paper), fluid (rate-based), online (per-slot greedy)")
	policy := flag.String("policy", "SEBF", "online engine priority: FIFO, SEBF, or WSPT")
	orderName := flag.String("order", "HLP", "bvn engine ordering: HA, Hrho, HLP, or PD (primal-dual)")
	grouping := flag.Bool("grouping", true, "consolidate coflows by geometric load intervals (Algorithm 2 step 2)")
	backfill := flag.Bool("backfill", false, "backfill idle matched slots from subsequent coflows")
	recompute := flag.Bool("recompute", false, "work-conserving extension: decompose remaining demand per stage")
	randomized := flag.Bool("randomized", false, "run the randomized algorithm instead (τ' intervals)")
	seed := flag.Int64("seed", 1, "seed for -randomized and -weights random")
	weights := flag.String("weights", "", "override weights: equal or random (permutation of 1..n)")
	filter := flag.Int("filter", 0, "keep only coflows with at least this many non-zero flows (M0)")
	lower := flag.Bool("lower", false, "also solve the interval LP lower bound")
	gantt := flag.Bool("gantt", false, "render an ASCII Gantt chart of the schedule (bvn engine, small instances)")
	verbose := flag.Bool("v", false, "print per-coflow completions")
	obsFlag := flag.Bool("obs", false, "instrument the pipeline and print a per-stage timing table at exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()

	if *obsFlag {
		reg := setupObs()
		// Deferred so every engine path (bvn, fluid, online) reports.
		defer func() {
			fmt.Println()
			if err := reg.WriteTable(os.Stdout); err != nil {
				log.Print(err)
			}
		}()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Deferred so every engine path (bvn, fluid, online) is covered.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Print(err)
				return
			}
			runtime.GC() // materialize the post-run live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
			// A close error here means a truncated profile.
			if err := f.Close(); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	ins, err := loadInstance(*tracePath, *traceFormat, *unitMillis)
	if err != nil {
		log.Fatal(err)
	}
	if *filter > 0 {
		ins = ins.FilterMinFlows(*filter)
		if len(ins.Coflows) == 0 {
			log.Fatalf("filter M0 >= %d leaves no coflows", *filter)
		}
	}
	switch *weights {
	case "":
	case "equal":
		ins.SetEqualWeights()
	case "random":
		ins.SetRandomPermutationWeights(rand.New(rand.NewSource(*seed)))
	default:
		log.Fatalf("unknown -weights %q (want equal or random)", *weights)
	}

	switch *engine {
	case "bvn":
	case "fluid":
		runFluid(ins)
		return
	case "online":
		runOnline(ins, *policy)
		return
	default:
		log.Fatalf("unknown -engine %q (want bvn, fluid, or online)", *engine)
	}

	var res *coflow.Result
	label := ""
	if *randomized {
		res, err = coflow.Randomized(ins, rand.New(rand.NewSource(*seed)))
		label = "randomized (LP order, random geometric grouping)"
	} else {
		opts := coflow.Options{Grouping: *grouping, Backfill: *backfill, Recompute: *recompute}
		switch *orderName {
		case "HA":
			opts.Ordering = coflow.OrderArrival
			res, err = coflow.Schedule(ins, opts)
		case "Hrho":
			opts.Ordering = coflow.OrderLoadWeight
			res, err = coflow.Schedule(ins, opts)
		case "HLP":
			opts.Ordering = coflow.OrderLP
			res, err = coflow.Schedule(ins, opts)
		case "PD":
			res, err = coflow.ScheduleOrdered(ins, coflow.PrimalDualOrder(ins), opts)
		default:
			log.Fatalf("unknown -order %q (want HA, Hrho, HLP, or PD)", *orderName)
		}
		label = opts.Label()
		if *orderName == "PD" {
			label = "PD" + label[strings.Index(label, "("):]
		}
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("algorithm:        %s\n", label)
	fmt.Printf("coflows:          %d on %d ports\n", len(ins.Coflows), ins.Ports)
	fmt.Printf("total weighted:   %.0f\n", res.TotalWeighted)
	fmt.Printf("makespan:         %d slots\n", res.Makespan)
	fmt.Printf("matchings used:   %d\n", res.Matchings)
	fmt.Printf("groups:           %d\n", len(res.Stages))
	if *lower {
		lb, err := coflow.LowerBound(ins)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("LP lower bound:   %.0f (schedule/bound = %.3f)\n", lb, res.TotalWeighted/lb)
	}
	fmt.Printf("slowdown:         %s\n", stats.SlowdownSummary(ins, res.Completion).Format())
	if *verbose {
		printCompletions(ins, res)
	}
	if *gantt {
		printGantt(ins, res, *backfill && !*randomized, *recompute && !*randomized)
	}
}

// setupObs builds one registry and installs the package-level
// instrumentation hooks for every engine the simulator can run: the
// simplex solver, BvN decomposition (including its matcher), the
// crossbar executors, and the online slot pipeline.
func setupObs() *obs.Registry {
	reg := obs.NewRegistry()
	lp.SetObs(lp.NewObs(reg))
	switchsim.SetObs(switchsim.NewObs(reg))
	online.SetDefaultObs(online.NewObs(reg))
	return reg
}

// printGantt replays the exact schedule (same order, stages, and
// flags) with unit-level recording, validates it against the paper's
// constraints (1)–(4), and renders it.
func printGantt(ins *coflow.Instance, res *coflow.Result, backfill, recompute bool) {
	rec, tr, err := switchsim.ExecuteRecorded(&switchsim.Plan{
		Ins:       ins,
		Order:     res.Order,
		Stages:    res.Stages,
		Backfill:  backfill,
		Recompute: recompute,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := switchsim.ValidateTranscript(ins, tr, rec.Completion); err != nil {
		log.Fatalf("transcript failed validation: %v", err)
	}
	fmt.Print(switchsim.RenderGantt(ins, tr, 160))
}

func runFluid(ins *coflow.Instance) {
	res, err := coflow.FluidSchedule(ins)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("algorithm:        fluid SEBF+MADD (rate-based)\n")
	fmt.Printf("coflows:          %d on %d ports\n", len(ins.Coflows), ins.Ports)
	fmt.Printf("total weighted:   %.1f\n", res.TotalWeighted)
	fmt.Printf("makespan:         %.1f time units\n", res.Makespan)
	fmt.Printf("epochs:           %d\n", res.Epochs)
}

func runOnline(ins *coflow.Instance, policyName string) {
	var p coflow.OnlinePolicy
	switch policyName {
	case "FIFO":
		p = coflow.OnlineFIFO
	case "SEBF":
		p = coflow.OnlineSEBF
	case "WSPT":
		p = coflow.OnlineWSPT
	default:
		log.Fatalf("unknown -policy %q (want FIFO, SEBF, or WSPT)", policyName)
	}
	res, err := coflow.OnlineSchedule(ins, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("algorithm:        online greedy %v (per-slot matching)\n", p)
	fmt.Printf("coflows:          %d on %d ports\n", len(ins.Coflows), ins.Ports)
	fmt.Printf("total weighted:   %.0f\n", res.TotalWeighted)
	fmt.Printf("makespan:         %d slots\n", res.Makespan)
}

func loadInstance(path, format string, unitMillis float64) (*coflow.Instance, error) {
	if path == "" {
		fmt.Fprintln(os.Stderr, "coflowsim: no -trace given; generating a bench-scale synthetic workload")
		return coflow.GenerateTrace(trace.BenchConfig())
	}
	switch format {
	case "json":
		return coflow.ReadInstance(path)
	case "bench":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		//lint:ignore errflow read-only file: Close cannot lose data and read errors surface from the parser
		defer f.Close()
		return trace.ParseBenchmarkFormat(f, unitMillis)
	}
	return nil, fmt.Errorf("unknown -format %q (want json or bench)", format)
}

func printCompletions(ins *coflow.Instance, res *coflow.Result) {
	type row struct {
		id         int
		weight     float64
		release    int64
		load       int64
		completion int64
	}
	rows := make([]row, len(ins.Coflows))
	for k := range ins.Coflows {
		c := &ins.Coflows[k]
		rows[k] = row{c.ID, c.Weight, c.Release, c.Load(ins.Ports), res.Completion[k]}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].completion < rows[b].completion })
	fmt.Printf("%6s %8s %8s %8s %10s\n", "id", "weight", "release", "load", "completion")
	for _, r := range rows {
		fmt.Printf("%6d %8.0f %8d %8d %10d\n", r.id, r.weight, r.release, r.load, r.completion)
	}
}
