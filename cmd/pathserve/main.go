// Command pathserve runs the engine as a long-lived query service: it
// builds one pathsel.Estimator — over an edge-list file or a generated
// Table-3 dataset — and serves it over HTTP (internal/serve), sharing
// the estimator's statistics, relation pool, and persistent relation
// cache across every concurrent request. The resource policy is exposed
// as flags: -max-result-bytes is the estimator's byte budget (its size
// projection gates admission too), and the server's per-query policy
// (serve.OverloadConfig) is -timeout, which bounds each query, -max-cost,
// which gates admission on estimated plan cost, and -degrade, which
// turns refusals and kills into degraded 200s carrying the histogram
// estimate; these act with the overload controller on or off.
// -max-inflight > 0 serves behind the overload controller (adaptive
// concurrency limit, bounded admission queue with predictive shedding,
// 429 + Retry-After), tuned by -min-inflight, -latency-target, -queue,
// and -queue-timeout; 0 leaves it off. -brownout additionally degrades
// expensive queries to estimates under sustained pressure, on the
// controller's fixed tuning.
//
// Usage:
//
//	pathserve -dataset snap-freebase-full -scale 0.05 -k 3    # generated dataset
//	pathserve -graph moreno.txt -k 3 -timeout 100ms -degrade  # edge-list file
//
// Endpoints: GET /query?q=a/b/c (exact selectivity with plan and cache
// stats), GET /stats (vocabulary, counters, cache occupancy), GET
// /healthz. On SIGINT/SIGTERM the server drains — /healthz and new
// queries answer 503 draining — and shuts down once in-flight queries
// finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/pathsel"
)

// options is the flag set, separated from main so tests can exercise
// the build path without a process.
type options struct {
	addr    string
	graph   string
	dataset string
	scale   float64
	seed    int64

	k       int
	buckets int

	workers    int
	cacheBytes int64
	shards     int

	timeout        time.Duration
	maxCost        float64
	maxResultBytes int64
	degrade        bool

	maxInFlight   int
	minInFlight   int
	latencyTarget time.Duration
	queueLimit    int
	queueTimeout  time.Duration
	brownout      bool

	faultStepDelay  time.Duration
	faultStepJitter time.Duration
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("pathserve", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address")
	fs.StringVar(&o.graph, "graph", "", "edge-list file (src dst label per line)")
	fs.StringVar(&o.dataset, "dataset", "", "generated dataset name (alternative to -graph)")
	fs.Float64Var(&o.scale, "scale", 0.05, "generated dataset scale in (0,1]")
	fs.Int64Var(&o.seed, "seed", 42, "generated dataset seed")
	fs.IntVar(&o.k, "k", 3, "maximum path length served")
	fs.IntVar(&o.buckets, "buckets", 64, "histogram bucket budget")
	fs.IntVar(&o.workers, "workers", 1, "per-query join parallelism (serving saturates cores with request parallelism; raise only for lone heavy queries)")
	fs.Int64Var(&o.cacheBytes, "cache-bytes", pathsel.DefaultCacheBytes, "persistent relation cache capacity (0 disables)")
	fs.IntVar(&o.shards, "cache-shards", 0, "relation cache shard count (0 = default)")
	fs.DurationVar(&o.timeout, "timeout", 0, "per-query deadline (0 = none)")
	fs.Float64Var(&o.maxCost, "max-cost", 0, "admission bound on estimated plan cost (0 = none)")
	fs.Int64Var(&o.maxResultBytes, "max-result-bytes", 0, "budget on any materialized relation (0 = none)")
	fs.BoolVar(&o.degrade, "degrade", false, "answer refused and killed queries with the histogram estimate instead of an error")
	fs.IntVar(&o.maxInFlight, "max-inflight", 0, "overload controller: concurrent execution slots (0 disables the controller)")
	fs.IntVar(&o.minInFlight, "min-inflight", 0, "overload controller: adaptive limit floor (0 = 1)")
	fs.DurationVar(&o.latencyTarget, "latency-target", 0, "overload controller: service-time target the in-flight limit adapts toward (0 pins the limit at -max-inflight)")
	fs.IntVar(&o.queueLimit, "queue", 0, "overload controller: admission queue bound (0 = 4x -max-inflight)")
	fs.DurationVar(&o.queueTimeout, "queue-timeout", 0, "overload controller: longest queued wait before predictive shedding (0 = 100ms)")
	fs.BoolVar(&o.brownout, "brownout", false, "overload controller: degrade expensive queries to estimates under sustained pressure")
	fs.DurationVar(&o.faultStepDelay, "fault-step-delay", 0, "testing: inject this blocking delay into every join step (models a slow backend for overload drills; 0 = off)")
	fs.DurationVar(&o.faultStepJitter, "fault-step-jitter", 0, "testing: deterministic jitter added to -fault-step-delay")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if (o.graph == "") == (o.dataset == "") {
		return nil, fmt.Errorf("exactly one of -graph or -dataset is required")
	}
	if o.timeout < 0 {
		return nil, fmt.Errorf("-timeout must be ≥ 0, got %v", o.timeout)
	}
	if o.maxInFlight <= 0 && (o.minInFlight > 0 || o.latencyTarget > 0 || o.queueLimit > 0 || o.queueTimeout > 0 || o.brownout) {
		return nil, fmt.Errorf("overload flags need the controller enabled: set -max-inflight > 0")
	}
	return o, nil
}

// buildServer loads the graph, builds the estimator, and wraps it in
// the serving layer.
func buildServer(o *options) (*serve.Server, *pathsel.Graph, error) {
	var g *pathsel.Graph
	if o.graph != "" {
		f, err := os.Open(o.graph)
		if err != nil {
			return nil, nil, err
		}
		g, err = pathsel.LoadEdgeList(f)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
	} else {
		var err error
		g, err = pathsel.GenerateDataset(o.dataset, o.scale, o.seed)
		if err != nil {
			return nil, nil, err
		}
	}
	est, err := pathsel.Build(g, pathsel.Config{
		MaxPathLength:  o.k,
		Buckets:        o.buckets,
		Workers:        o.workers,
		CacheBytes:     o.cacheBytes,
		CacheShards:    o.shards,
		MaxResultBytes: o.maxResultBytes,
	})
	if err != nil {
		return nil, nil, err
	}
	return serve.NewWithOverload(est, serve.OverloadConfig{
		QueryTimeout:      o.timeout,
		MaxPlanCost:       o.maxCost,
		DegradeToEstimate: o.degrade,
		MaxInFlight:       o.maxInFlight,
		MinInFlight:       o.minInFlight,
		LatencyTarget:     o.latencyTarget,
		QueueLimit:        o.queueLimit,
		QueueTimeout:      o.queueTimeout,
		Brownout:          o.brownout,
	}), g, nil
}

func run(o *options) error {
	start := time.Now()
	if o.faultStepDelay > 0 {
		faultinject.Install(faultinject.NewInjector(faultinject.Rule{
			Site: "exec.step", Action: faultinject.ActDelay,
			Delay: o.faultStepDelay, Jitter: o.faultStepJitter,
		}))
		defer faultinject.Uninstall()
		fmt.Printf("pathserve: fault injection armed: exec.step delay %v jitter %v\n", o.faultStepDelay, o.faultStepJitter)
	}
	srv, g, err := buildServer(o)
	if err != nil {
		return err
	}
	fmt.Printf("pathserve: %d vertices, %d edges, labels %v, built in %v\n",
		g.NumVertices(), g.NumEdges(), g.Labels(), time.Since(start).Round(time.Millisecond))

	hs := &http.Server{Addr: o.addr, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("pathserve: listening on http://%s (GET /query?q=a/b/c, /stats, /healthz)\n", o.addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("pathserve: %v — draining\n", sig)
		srv.StartDrain() // new arrivals get 503 + Retry-After while in-flight work finishes
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		c := srv.Counters()
		fmt.Printf("pathserve: served %d requests (%d ok, %d degraded, %d rejected, %d shed, %d brownout-degraded, %d timeout, %d failed)\n",
			c.Requests, c.OK, c.Degraded, c.Rejected, c.Shed, c.BrownoutDegraded, c.Timeout, c.Failed)
		return nil
	}
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "pathserve:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "pathserve:", err)
		os.Exit(1)
	}
}
