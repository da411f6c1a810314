package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"coflow/internal/coflowmodel"
	"coflow/internal/daemon"
	"coflow/internal/online"
	"coflow/internal/shard"
)

// serveWorkload drives the HTTP control plane of a wall-clock cluster
// over a loopback listener (127.0.0.1, not a real link). The loop is
// closed: each client sends its next request when the previous one has
// answered, so a slower server is offered less load. One operation is
// one HTTP request; an iteration is POST a bulk of small coflows, GET a
// few of them, bulk-DELETE half (the rest complete on their own), and
// now and then read /v1/metrics and /v1/schedule. HTTP decode and
// encode, the per-fabric command queue and snapshot publication
// dominate; the backlog is bounded by the lifecycle, so Step does
// little. Reads sit beside writes, so a write-path gain that slows
// snapshot reads shows.
type serveWorkload struct {
	label      string
	ports      int
	shards     int
	tick       time.Duration
	clients    int
	iterations int // scripted iterations per client, cycled
	bulk       int // coflows per POST
	gets       int // GETs per iteration
	cancels    int // ids per bulk DELETE
	probeEvery int // iterations between /v1/metrics + /v1/schedule reads
	warm       int // warm-up iterations per client
	shadowed   int // requests per shadow pass in the traced run
}

func serveHTTP() *serveWorkload {
	return &serveWorkload{
		label: "serve-http", ports: 50, shards: 4, tick: 2 * time.Millisecond,
		clients: min(2, runtime.NumCPU()), iterations: 256,
		bulk: 16, gets: 4, cancels: 8, probeEvery: 50, warm: 100, shadowed: 200,
	}
}

func (w *serveWorkload) name() string { return w.label }

// request kinds, which are also the span names of the traced run.
const (
	kindRegister = "http.register"
	kindGet      = "http.get"
	kindCancel   = "http.cancel"
	kindMetrics  = "http.metrics"
	kindSchedule = "http.schedule"
)

// iteration is one scripted pass of a client: a pre-encoded bulk body
// and which of the coflows it creates are then read and cancelled.
type iteration struct {
	body    []byte
	regs    []*coflowmodel.Registration
	gets    []int
	cancels []int
}

// script draws one client's iterations from the seed.
func (w *serveWorkload) script(seed int64, client int) ([]iteration, error) {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	its := make([]iteration, w.iterations)
	for i := range its {
		regs := make([]*coflowmodel.Registration, w.bulk)
		for k := range regs {
			flows := make([]coflowmodel.Flow, 1+rng.Intn(3))
			for f := range flows {
				flows[f] = coflowmodel.Flow{Src: rng.Intn(w.ports), Dst: rng.Intn(w.ports), Size: int64(1 + rng.Intn(4))}
			}
			regs[k] = &coflowmodel.Registration{Weight: float64(1 + rng.Intn(4)), Flows: flows}
		}
		body, err := json.Marshal(regs)
		if err != nil {
			return nil, err
		}
		perm := rng.Perm(w.bulk)
		its[i] = iteration{body: body, regs: regs, cancels: perm[:w.cancels], gets: rng.Perm(w.bulk)[:w.gets]}
	}
	return its, nil
}

// server is a running cluster behind its HTTP handler on loopback.
type server struct {
	cluster *shard.Cluster
	srv     *http.Server
	base    string
	served  chan error // Serve's return value
}

func (w *serveWorkload) start() (*server, error) {
	c, err := shard.New(shard.Config{
		Shards: w.shards, AggEvery: -1,
		Fabric: daemon.Config{Ports: w.ports, Policy: online.SEBF, Tick: w.tick},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, c.Close())
	}
	s := &server{
		cluster: c,
		srv:     &http.Server{Handler: c.Handler()},
		base:    "http://" + ln.Addr().String(),
		served:  make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down, waits for Serve to return, and closes
// the cluster's fabrics.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.cluster.Close())
}

// client is one closed-loop connection and everything it observed.
type client struct {
	w     *serveWorkload
	base  string
	http  *http.Client
	iters []iteration
	tr    *tracer // nil with tracing off

	// With a tracer the odd iterations are traced and the even ones
	// are not, so both kinds see the same server at the same time.
	plainSecs  []float64
	tracedSecs []float64
	acked      []int // every coflow ID a POST acknowledged
	requests   int
	status4xx  int
	status5xx  int
	conflicts  int // cancels that lost the race against completion: expected
	netErrs    int
	itemErrs   int // bulk items refused for any other reason
	queueDepth int // largest per-fabric command queue depth seen in /v1/metrics
}

func (w *serveWorkload) newClient(base string, iters []iteration, tr *tracer) *client {
	return &client{
		w: w, base: base, iters: iters, tr: tr,
		http: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 2}},
	}
}

// do sends one request, reads the whole reply, and records the latency
// the client saw. It returns the body of a 2xx reply, nil otherwise.
func (cl *client) do(kind, method, path string, body []byte, op int64) []byte {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, cl.base+path, rd)
	if err != nil {
		cl.netErrs++
		return nil
	}
	t0 := time.Now()
	resp, err := cl.http.Do(req)
	var raw []byte
	if err == nil {
		raw, err = io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
	}
	t1 := time.Now()
	cl.requests++
	if err != nil {
		cl.netErrs++
		return nil
	}
	if cl.traced(op) {
		cl.tracedSecs = append(cl.tracedSecs, t1.Sub(t0).Seconds())
		cl.tr.add(kind, -1, op, t0, t1)
	} else {
		cl.plainSecs = append(cl.plainSecs, t1.Sub(t0).Seconds())
	}
	switch {
	case resp.StatusCode >= 500:
		cl.status5xx++
	case resp.StatusCode == http.StatusConflict:
		cl.conflicts++
	case resp.StatusCode >= 400:
		cl.status4xx++
	default:
		return raw
	}
	return nil
}

// traced reports whether iteration n is one of the traced ones.
func (cl *client) traced(n int64) bool { return cl.tr != nil && n%2 == 1 }

// iterate runs scripted iteration n.
func (cl *client) iterate(n int) {
	it := cl.iters[n%len(cl.iters)]
	op := int64(n)
	t0 := time.Now()
	ids := make([]int, 0, len(it.regs))
	if raw := cl.do(kindRegister, http.MethodPost, "/v1/coflows", it.body, op); raw != nil {
		var br daemon.BulkResponse
		if err := json.Unmarshal(raw, &br); err != nil {
			cl.netErrs++
		}
		for _, item := range br.Results {
			if item.Error != "" {
				cl.itemErrs++
				continue
			}
			ids = append(ids, item.ID)
		}
		cl.acked = append(cl.acked, ids...)
	}
	if len(ids) == len(it.regs) {
		for _, k := range it.gets {
			cl.do(kindGet, http.MethodGet, "/v1/coflows/"+strconv.Itoa(ids[k]), nil, op)
		}
		doomed := make([]int, len(it.cancels))
		for i, k := range it.cancels {
			doomed[i] = ids[k]
		}
		body, err := json.Marshal(doomed)
		if err != nil {
			cl.netErrs++
		} else if raw := cl.do(kindCancel, http.MethodDelete, "/v1/coflows", body, op); raw != nil {
			var br daemon.BulkResponse
			if err := json.Unmarshal(raw, &br); err != nil {
				cl.netErrs++
			}
			for _, item := range br.Results {
				switch item.Kind {
				case "":
				case "terminal_coflow":
					cl.conflicts++
				default:
					cl.itemErrs++
				}
			}
		}
	}
	if n%cl.w.probeEvery == cl.w.probeEvery-1 {
		if raw := cl.do(kindMetrics, http.MethodGet, "/v1/metrics", nil, op); raw != nil {
			var m shard.ClusterMetrics
			if err := json.Unmarshal(raw, &m); err != nil {
				cl.netErrs++
			}
			for _, sm := range m.PerShard {
				cl.queueDepth = max(cl.queueDepth, sm.Metrics.QueueDepth)
			}
		}
		cl.do(kindSchedule, http.MethodGet, "/v1/schedule", nil, op)
	}
	if cl.traced(op) {
		cl.tr.add("http.iteration", -1, op, t0, time.Now())
	}
}

// drive runs every client's loop side by side: for the given time, or
// for exactly iterations each when iterations is positive (warm-up).
func drive(clients []*client, seconds float64, iterations int) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				if (iterations > 0 && n == iterations) || (iterations == 0 && !time.Now().Before(deadline)) {
					return
				}
				cl.iterate(n)
			}
		}()
	}
	wg.Wait()
}

// serveState is a started server with its scripted clients.
type serveState struct {
	srv     *server
	scripts [][]iteration
}

func (w *serveWorkload) setup(seed int64) (*serveState, func(), error) {
	st := &serveState{}
	for i := 0; i < w.clients; i++ {
		its, err := w.script(seed, i)
		if err != nil {
			return nil, nil, err
		}
		st.scripts = append(st.scripts, its)
	}
	srv, err := w.start()
	if err != nil {
		return nil, nil, err
	}
	st.srv = srv
	warm := w.clientsFor(st, nil)
	drive(warm, 0, w.warm)
	for _, cl := range warm {
		cl.http.CloseIdleConnections()
		if cl.netErrs+cl.status5xx > 0 {
			return nil, nil, errors.Join(fmt.Errorf("%s: warm-up saw %d transport errors and %d 5xx", w.label, cl.netErrs, cl.status5xx), srv.stop())
		}
	}
	return st, func() {
		if err := srv.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: stopping the server: %v\n", w.label, err)
		}
	}, nil
}

// clientsFor builds one client per script; tracing gives each its own
// tracer, merged into the run's once the clients are done.
func (w *serveWorkload) clientsFor(st *serveState, tr *tracer) []*client {
	clients := make([]*client, len(st.scripts))
	for i, its := range st.scripts {
		var own *tracer
		if tr != nil {
			own = newTracer()
		}
		clients[i] = w.newClient(st.srv.base, its, own)
	}
	return clients
}

// measure drives the clients for the given time and folds what they saw
// into the two sections and the outcome's counts.
func (w *serveWorkload) measure(st *serveState, seconds float64, tr *tracer, o *outcome) (plain, traced *section, clients []*client, err error) {
	clients = w.clientsFor(st, tr)
	plain, traced = &section{}, &section{}
	plain.begin()
	drive(clients, seconds, 0)
	plain.end()
	for _, cl := range clients {
		cl.http.CloseIdleConnections()
		plain.opSecs = append(plain.opSecs, cl.plainSecs...)
		traced.opSecs = append(traced.opSecs, cl.tracedSecs...)
		tr.merge(cl.tr)
		o.attempt(cl.requests)
		o.failN(cl.netErrs+cl.status5xx+cl.status4xx+cl.itemErrs,
			"%s: %d transport errors, %d 5xx, %d unexpected 4xx, %d refused bulk items",
			w.label, cl.netErrs, cl.status5xx, cl.status4xx, cl.itemErrs)
	}
	if len(plain.opSecs) == 0 {
		return nil, nil, nil, fmt.Errorf("%s: no request completed", w.label)
	}
	return plain, traced, clients, nil
}

// drain waits for the fabrics to finish what the clients left behind,
// then holds every acknowledged coflow to a terminal state and returns
// Σ wC over Σ w(r+ρ) of the completed ones.
func (w *serveWorkload) drain(st *serveState, clients []*client, o *outcome) float64 {
	c := st.srv.cluster
	for deadline := time.Now().Add(10 * time.Second); activeCoflows(c) > 0 && time.Now().Before(deadline); {
		time.Sleep(10 * w.tick)
	}
	var wc, lb float64
	unresolved := 0
	for _, cl := range clients {
		for _, id := range cl.acked {
			_, cs, ok := c.Owner(id)
			switch {
			case !ok || cs.State == "active":
				unresolved++
			case cs.State == "completed":
				wc += cs.Weight * float64(cs.Completed)
				lb += cs.Weight * float64(cs.Release+cs.Load)
			}
		}
	}
	o.check(unresolved == 0, "%s: %d acknowledged coflows are not terminal at drain", w.label, unresolved)
	o.check(lb > 0 && wc >= lb, "%s: Σ wC %v is below its lower bound %v", w.label, wc, lb)
	return wc / lb
}

func (w *serveWorkload) run(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	st, stop, setupS, err := timeSetup(rc, func() (*serveState, func(), error) { return w.setup(rc.seed) })
	if err != nil {
		return nil, err
	}
	defer stop()

	plain, traced, clients, err := w.measure(st, rc.seconds, rc.tr, o)
	if err != nil {
		return nil, err
	}
	if rc.tr == nil {
		o.setEndToEnd(setupS, plain, w.drain(st, clients, o))
		return o, nil
	}
	o.setHarness(plain, traced)
	if err := w.shadow(st, rc.tr, o); err != nil {
		return nil, err
	}
	w.drain(st, clients, o)

	tr := rc.tr
	o.values["http.register_ms_p50"] = medianOf(tr, kindRegister, 1e3)
	o.values["http.register_ms_p99"] = p99Of(tr, kindRegister, 1e3)
	o.values["http.get_ms_p50"] = medianOf(tr, kindGet, 1e3)
	o.values["http.get_ms_p99"] = p99Of(tr, kindGet, 1e3)
	o.values["http.cancel_ms_p50"] = medianOf(tr, kindCancel, 1e3)
	o.values["http.metrics_ms_p50"] = medianOf(tr, kindMetrics, 1e3)
	for _, cl := range clients {
		o.values["http.status_4xx"] += float64(cl.status4xx)
		o.values["http.status_5xx"] += float64(cl.status5xx)
		o.values["http.conflicts_409"] += float64(cl.conflicts)
		o.values["daemon.queue_depth_max"] = max(o.values["daemon.queue_depth_max"], float64(cl.queueDepth))
	}
	return o, nil
}

// shadow sends the scripted bulk bodies past the socket: through the
// handler with a recorder, through the parser alone, and item by item
// through Cluster.Register, so the socket's share of a registration is
// http.register − http.handler and the parser's and router's shares
// are known beside it. It also reads the daemon's own rolling tick
// window, which the wall-clock run cannot shadow slot by slot.
func (w *serveWorkload) shadow(st *serveState, tr *tracer, o *outcome) error {
	c := st.srv.cluster
	handler := c.Handler()
	its := st.scripts[0]
	for i := 0; i < w.shadowed; i++ {
		it := its[i%len(its)]
		op := int64(i)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/coflows", bytes.NewReader(it.body))
		h := tr.time("http.handler", -1, op, func() { handler.ServeHTTP(rec, req) })
		o.check(rec.Code == http.StatusOK, "%s: handler answered a bulk POST with %d", w.label, rec.Code)

		var err error
		tr.time("coflowmodel.parse", h, op, func() { _, err = coflowmodel.ParseRegistrations(bytes.NewReader(it.body), w.ports) })
		if err != nil {
			return fmt.Errorf("%s: parse scripted body: %w", w.label, err)
		}
		reg := it.regs[i%len(it.regs)]
		tr.time("shard.register", h, op, func() { _, _, _, err = c.Register(reg) })
		if err != nil {
			return fmt.Errorf("%s: direct register: %w", w.label, err)
		}
	}
	o.values["http.handler_us_p50"] = medianOf(tr, "http.handler", 1e6)
	o.values["coflowmodel.parse_bulk_us"] = medianOf(tr, "coflowmodel.parse", 1e6)
	o.values["shard.register_us_p50"] = medianOf(tr, "shard.register", 1e6)

	probeCluster(c, o)
	m := c.Metrics()
	for _, sm := range m.PerShard {
		n := float64(len(m.PerShard))
		o.values["online.step_us_p50"] += sm.Metrics.TickLatency.P50 * 1e6 / n
		o.values["online.step_us_p99"] += sm.Metrics.TickLatency.P99 * 1e6 / n
		o.values["online.warm_hit_rate"] += sm.Metrics.MatcherWarmStartHitRate / n
	}
	return nil
}
