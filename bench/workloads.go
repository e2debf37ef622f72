package main

import (
	"math/rand"

	"repro/pathsel"
)

// opKind is what one operation of a workload is.
type opKind int

const (
	// kindEstimate: Compile a pattern and read its estimate and plan —
	// the optimiser's call. No graph access.
	kindEstimate opKind = iota
	// kindExecute: execute a pre-compiled handle in process.
	kindExecute
	// kindServe: one GET /query over keep-alive loopback HTTP.
	kindServe
)

// datasetSeed fixes every workload's graph: the graph is part of the
// workload's definition, not of the run's seed (see README, "What the
// seed changes").
const datasetSeed = 1

// spec defines one workload: the system under test, the distinct queries
// it is asked, and how a run's seed turns them into an operation stream.
type spec struct {
	name, why string
	dataset   string
	scale     float64
	cfg       pathsel.Config
	kind      opKind
	// clients is the closed loop's client count; 0 means one per CPU.
	clients int
	// zipf is the popularity skew over the ranked pool; 0 makes every
	// client walk a seeded permutation of the pool round-robin.
	zipf float64
	// pool builds the ranked pool of distinct queries from the workload's
	// own constant seed, so every run seed samples the same distribution.
	pool func(sp *spec, labels []string) []entry
	// warmupOps is the length of the fixed warm-up sequence every set-up
	// replays before the first timed operation.
	warmupOps int
	// traceOps is how many operations of the seeded sequence each traced
	// level replays.
	traceOps int
}

// workloads lists the benchmark's workloads; BENCHMARK.json names the
// same four.
var workloads = []*spec{
	{
		name: "estimate_stream",
		why: "an optimiser consulting the histogram: ordering and bucket lookups, RPQ parse and the " +
			"planner DP do all the work at the paper's k=6; no graph access, so executor and cache changes must not move it",
		dataset: "Moreno health", scale: 1.0,
		cfg:     pathsel.Config{MaxPathLength: 6, Buckets: 1024, BushyPlans: true},
		kind:    kindEstimate,
		clients: 1,
		pool: func(sp *spec, labels []string) []entry {
			rng := rand.New(rand.NewSource(101))
			k := sp.cfg.MaxPathLength
			return interleave(rng,
				concretePool(rng, labels, 1, k, 3000),
				rpqPool(rng, labels, rpqShape{maxLen: k, maxRep: 3, wildcards: 2}, 1000))
		},
		warmupOps: 4000,
		traceOps:  12000,
	},
	{
		name: "exec_uncached",
		why: "executor and kernels in the dense-row regime with intra-query sharding on the scheduler; " +
			"handles are pre-compiled and nothing is cached, so only a kernel, merge or scheduler change shows here",
		dataset: "SNAP-ER", scale: 0.5,
		cfg:     pathsel.Config{MaxPathLength: 4, Buckets: 64, BushyPlans: true},
		kind:    kindExecute,
		clients: 1,
		// An odd pool size: the round-robin gives every query the same
		// share of the operations, so with an even count the median sits
		// exactly between two queries' clusters and flips between them.
		pool: func(sp *spec, labels []string) []entry {
			rng := rand.New(rand.NewSource(102))
			k := sp.cfg.MaxPathLength
			return interleave(rng,
				concretePool(rng, labels, 2, k, 65),
				rpqPool(rng, labels, rpqShape{maxLen: k, maxRep: 3}, 16))
		},
		warmupOps: 81,
		traceOps:  243,
	},
	{
		name: "serve_hot",
		why: "served requests that all hit the relation cache: transport, decode, compile-per-request and " +
			"JSON encode are the bulk of the round trip; the read side of the cache",
		dataset: "SNAP-FF", scale: 0.1,
		cfg:  pathsel.Config{MaxPathLength: 3, Buckets: 32, Workers: 1, CacheBytes: 64 << 20},
		kind: kindServe,
		zipf: 1.2,
		pool: func(sp *spec, labels []string) []entry {
			rng := rand.New(rand.NewSource(103))
			return concretePool(rng, labels, 2, sp.cfg.MaxPathLength, 24)
		},
		warmupOps: 48,
		traceOps:  6000,
	},
	{
		name: "serve_mixed",
		why: "served concrete and RPQ requests whose working set is about four times the cache: publish, " +
			"eviction, partial adoption and the DAG executor run beside the hits; the write side of the cache",
		dataset: "SNAP-FF", scale: 0.25,
		cfg:  pathsel.Config{MaxPathLength: 3, Buckets: 64, Workers: 1, CacheBytes: 16 << 20, CacheShards: 2},
		kind: kindServe,
		zipf: 1.2,
		pool: func(sp *spec, labels []string) []entry {
			rng := rand.New(rand.NewSource(104))
			k := sp.cfg.MaxPathLength
			return interleave(rng,
				concretePool(rng, labels, 2, k, 210),
				rpqPool(rng, labels, rpqShape{maxLen: k, maxRep: 3, wildcards: 1}, 90))
		},
		warmupOps: 900,
		traceOps:  1000,
	},
}

// workloadByName returns the named workload, or nil.
func workloadByName(name string) *spec {
	for _, sp := range workloads {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// reduced returns a copy of the workload on a graph small enough for the
// race-enabled smoke test: the same code paths, numbers that mean nothing.
func (sp *spec) reduced() *spec {
	r := *sp
	r.scale = sp.scale / 10
	r.cfg.MaxPathLength = min(r.cfg.MaxPathLength, 3)
	r.warmupOps = min(r.warmupOps, 100)
	r.traceOps = min(r.traceOps, 100)
	return &r
}
