package main

import (
	"errors"
	"fmt"
	"os"
)

// runTraced is the traced run: the per-layer metrics. A shorter untraced
// window supplies the counters that only mean something under the real
// loop (allocations, GC, cache traffic, scheduler activity); the layers
// are then timed from outside, module by module and level by level.
func runTraced(cfg runConfig) (result, error) {
	p, err := prepare(cfg, false)
	if err != nil {
		return result{}, err
	}
	defer p.close()
	sp, pool := cfg.sp, p.sys.pool
	m := make(map[string]float64)

	o := observe(p.sys, p.ref, cfg.seed, cfg.dur*2/5)
	nonOK, statsErr := checkCounters(p.sys)
	ops := float64(max(o.attempted, 1))
	m["bench.failed_share"] = float64(o.failed) / ops
	m["bench.oracle_s"] = p.oracleS
	m["bench.host_speed"] = o.hostSpeed
	m["proc.allocs_per_op"] = float64(o.mallocs) / ops
	m["proc.alloc_bytes_per_op"] = float64(o.allocBytes) / ops
	m["proc.gc_cycles"] = float64(o.gcCycles)
	m["proc.gc_pause_ms"] = float64(o.gcPauseNs) / 1e6
	if sp.kind == kindExecute {
		m["sched.tasks_per_op"] = float64(o.tasks) / ops
		m["sched.parks_per_op"] = float64(o.parks) / ops
		if o.tasks > 0 {
			m["sched.steal_share"] = float64(o.steals) / float64(o.tasks)
		}
	}
	if o.cached {
		m["relcache.hit_rate"] = o.cache.HitRate()
		m["relcache.puts_per_op"] = float64(o.cache.Puts) / ops
		m["relcache.evictions_per_put"] = float64(o.cache.Evictions) / float64(max(o.cache.Puts, 1))
		m["relcache.rejected"] = float64(o.cache.Rejected)
		m["relcache.resident_mb"] = float64(o.cache.Bytes) / (1 << 20)
		m["relcache.lock_wait_us_per_op"] = float64(o.cache.LockWaitNs) / 1e3 / ops
	}
	if sp.kind == kindServe {
		m["serve.response_bytes"] = float64(o.respBytes) / ops
		m["serve.non_ok"] = float64(nonOK)
	}

	env, err := buildChain(sp, m)
	if err != nil {
		return result{}, err
	}
	measureLookups(env, pool, m)
	if err := measurePlanner(env, pool, m); err != nil {
		return result{}, err
	}
	if sp.kind != kindEstimate {
		measureKernels(env, pool, m)
	}

	// The first traceOps operations of client 0's sequence: the same
	// operations at every level, so per-operation times subtract.
	seq := newSequence(len(pool), sp.zipf, cfg.seed, 0).take(sp.traceOps)
	var rec *recorder
	var reconcileErr error
	for attempt := 1; ; attempt++ {
		var tally execTally
		if rec, err = runLevels(levelsOf(p.sys, env, &tally), seq); err != nil {
			return result{}, err
		}
		if tally.ops > 0 {
			m["exec.work_pairs"] = float64(tally.work) / float64(tally.ops)
			m["exec.bushy_share"] = float64(tally.bushy) / float64(tally.ops)
			m["exec.dag_share"] = float64(tally.dag) / float64(tally.ops)
		}
		reconcileErr = layerTimes(sp, rec.spans, len(seq), m)
		if tally.work > 0 {
			m["exec.ns_per_work_pair"] = m["exec.run_us"] * 1e3 * float64(tally.ops) / float64(tally.work)
		}
		// Levels that fail to add up because the host stalled one of them
		// add up on a second try; levels that fail because a layer's
		// timing no longer nests inside its parent's fail again.
		if reconcileErr == nil || attempt == 2 {
			break
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %v; replaying the levels once more\n", sp.name, reconcileErr)
	}
	if err := rec.writeJSONL(traceFile(cfg.outDir, sp.name)); err != nil {
		return result{}, err
	}

	note := make(map[string]string)
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
			note[d.name] = "absent: this workload does not run the layer"
		}
	}
	metrics, err := newResult(perLayer, m)
	if err != nil {
		return result{}, err
	}
	res := result{Workload: sp.name, Seed: cfg.seed, Trace: true, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
	res.Correct = o.failed == 0 && o.attempted > 0 && statsErr == nil && reconcileErr == nil

	fmt.Fprintf(cfg.out, "%s  seed %d  traced: %d operations per level, spans in %s\n",
		sp.name, cfg.seed, len(seq), traceFile(cfg.outDir, sp.name))
	printMetrics(cfg.out, perLayer, metrics, note)
	printProperties(cfg.out, o)
	if err := errors.Join(statsErr, reconcileErr); err != nil {
		fmt.Fprintf(cfg.out, "  %v\n", err)
	}
	if !res.Correct {
		return res, errIncorrect
	}
	return res, nil
}
