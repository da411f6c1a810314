// Command coflowd runs the resident coflow scheduling daemon: one or
// more virtual m×m switch fabrics advanced slot-by-slot on wall-clock
// ticks, behind an HTTP/JSON control plane for registering (single or
// bulk), inspecting and cancelling coflows (single via DELETE
// /v1/coflows/{id}, bulk via a JSON ID array on DELETE /v1/coflows),
// injecting port failures (POST /v1/ports/{port}/fail and /recover —
// demand on a failed port parks until recovery, it is never dropped)
// and for reading live scheduler metrics. Cancelling a coflow that
// already completed or was cancelled answers 409 with the structured
// kind "terminal_coflow"; churn-heavy clients (the scenario replays
// in internal/shard's tests and the benchmark harness) treat that as
// expected cancel-vs-completion racing.
//
// The control plane is shard.Cluster.Handler at every fabric count —
// there is no separate single-fabric API — so responses always name
// the fabric ({"fabric":0,"id":1,"release":N}) and per-fabric metrics
// sit under per_shard[i].metrics. Every error is structured JSON
// ({"error","kind"}), including 404 not_found for an unknown path, and
// a body with anything but whitespace after its JSON value is refused
// whole with 400 malformed_json.
//
// Usage:
//
//	coflowd [-addr :8080] [-ports 50] [-policy SEBF] [-tick 10ms]
//	        [-shards 1] [-fabric 50,50,100] [-deadline 0]
//	        [-max-body 1048576] [-window 1024] [-snapshot state.json]
//	        [-pprof localhost:6060] [-selfcheck] [-selfcheck-every 8]
//	        [-plan]
//
// -plan maintains a live Birkhoff–von Neumann plan of each fabric's
// aggregate backlog alongside the greedy tick (an online.Planner over
// the reusable bvn.Decomposer, which decomposes the backlog again after
// every tick that served and every cancel).
// Its ρ — the optimal number of slots to clear the backlog — and term
// count surface in GET /v1/metrics.
//
// -shards N runs N independent switch fabrics (each its own
// single-writer scheduling loop, metrics registry and self-check
// monitor) behind one control plane. Registrations are placed by
// consistent hash of the coflow ID, or pinned with the registration's
// "fabric" field. /metrics labels per-fabric series with fabric="i"
// and adds cluster-level rollups.
//
// -fabric lists per-fabric port counts for a heterogeneous cluster,
// e.g. -fabric 50,50,100 runs two 50-port fabrics and one 100-port
// fabric; it overrides both -shards and -ports.
//
// -selfcheck runs an independent invariant monitor inside each tick
// loop (internal/check): every slot's demand bookkeeping is shadowed,
// and sampled slots are validated against the feasibility invariants
// (matching, release dates, demand conservation). Violations are
// counted in GET /v1/metrics.
//
// -pprof serves the net/http/pprof debug endpoints on a SEPARATE
// listener (keep it loopback-only; profiles leak internals), so live
// scheduling latency can be profiled without exposing debug handlers
// on the control plane.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight HTTP
// requests drain, every fabric's scheduler loop stops, and (with
// -snapshot) each fabric's final state is written as JSON (suffixed
// .fabricN when sharded).
//
// See the README's "Running coflowd" section for curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"coflow/internal/daemon"
	"coflow/internal/online"
	"coflow/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("coflowd: ")

	addr := flag.String("addr", ":8080", "listen address for the HTTP control plane")
	ports := flag.Int("ports", 50, "switch size m (ingress and egress ports)")
	policyName := flag.String("policy", "SEBF", "scheduling priority: FIFO, SEBF, or WSPT")
	tick := flag.Duration("tick", 10*time.Millisecond, "real-time duration of one scheduling slot")
	shards := flag.Int("shards", 1, "independent switch fabrics behind this control plane")
	fabricSpec := flag.String("fabric", "", "comma-separated per-fabric port counts, e.g. 50,50,100 (overrides -shards and -ports)")
	deadline := flag.Duration("deadline", 0, "per-tick scheduling budget; a slower tick degrades the policy to FIFO (0 disables)")
	maxBody := flag.Int64("max-body", 1<<20, "maximum request body size in bytes")
	window := flag.Int("window", 1024, "rolling window size for latency and slowdown summaries")
	snapshot := flag.String("snapshot", "", "write the final state snapshot(s) to this file on shutdown")
	plan := flag.Bool("plan", false, "maintain a live BvN plan of each fabric's backlog (optimal clearing time in /v1/metrics)")
	selfCheck := flag.Bool("selfcheck", false, "run the invariant monitor in each tick loop (violations surface in /v1/metrics)")
	selfCheckEvery := flag.Int("selfcheck-every", 8, "with -selfcheck, validate every k-th tick (1 = every tick)")
	drain := flag.Duration("drain", 5*time.Second, "maximum time to wait for in-flight requests on shutdown")
	pprofAddr := flag.String("pprof", "", "listen address for net/http/pprof debug endpoints, e.g. localhost:6060 (disabled when empty)")
	flag.Parse()

	var policy online.Policy
	switch *policyName {
	case "FIFO":
		policy = online.FIFO
	case "SEBF":
		policy = online.SEBF
	case "WSPT":
		policy = online.WSPT
	default:
		log.Fatalf("unknown -policy %q (want FIFO, SEBF, or WSPT)", *policyName)
	}
	if *tick <= 0 {
		log.Fatal("-tick must be positive (the daemon's clock is the ticker)")
	}

	cfg := shard.Config{
		Shards:  *shards,
		MaxBody: *maxBody,
		Fabric: daemon.Config{
			Ports:          *ports,
			Policy:         policy,
			Tick:           *tick,
			Deadline:       *deadline,
			Window:         *window,
			SnapshotPath:   *snapshot,
			SelfCheck:      *selfCheck,
			SelfCheckEvery: *selfCheckEvery,
			Plan:           *plan,
		},
	}
	if *fabricSpec != "" {
		perFabric, err := parseFabricSpec(*fabricSpec)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Shards = len(perFabric)
		cfg.Ports = perFabric
	}

	c, err := shard.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *pprofAddr != "" {
		// A dedicated mux (not http.DefaultServeMux) on a dedicated
		// listener: the control plane stays free of debug handlers.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("pprof debug endpoints on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, dbg); err != nil {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	// Registered before "serving on" is logged, so whoever waits for
	// that line can signal at once and still get the graceful path.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{Addr: *addr, Handler: c.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving on %s: fabrics=%d policy=%s tick=%s deadline=%s",
		*addr, c.Shards(), policy, *tick, *deadline)
	for i := 0; i < c.Shards(); i++ {
		log.Printf("  fabric %d: m=%d", i, c.Fabric(i).Ports())
	}

	select {
	case <-ctx.Done():
		log.Print("signal received; draining")
	case err := <-errc:
		log.Fatal(err)
	}

	// Graceful shutdown: drain HTTP first so no handler races the
	// closing scheduler loops, then stop every fabric (each writes its
	// final snapshot).
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	// Close returns nil only if every fabric wrote its snapshot, so
	// success is logged on nil alone and a failure is the only line.
	if err := c.Close(); err != nil {
		log.Printf("close: %v", err)
	} else if *snapshot != "" && c.Shards() == 1 {
		log.Printf("final state written to %s", *snapshot)
	} else if *snapshot != "" {
		log.Printf("final state written to %s.fabric0..%s.fabric%d", *snapshot, *snapshot, c.Shards()-1)
	}
	m := c.Metrics()
	log.Printf("stopped: %d registered, %d completed, %d cancelled across %d fabrics",
		m.Registered, m.Completed, m.Cancelled, m.Fabrics)
	for _, s := range m.PerShard {
		log.Printf("  fabric %d: slot %d, %d registered, %d completed",
			s.Fabric, s.Slot, s.Metrics.Registered, s.Metrics.Completed)
	}
}

// parseFabricSpec parses "-fabric 50,50,100" into per-fabric port
// counts.
func parseFabricSpec(spec string) ([]int, error) {
	parts := strings.Split(spec, ",")
	out := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, errors.New("-fabric wants comma-separated positive port counts, e.g. 50,50,100")
		}
		out[i] = n
	}
	return out, nil
}
