package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/pathsel"
)

// runConfig is one run of one workload.
type runConfig struct {
	sp     *spec
	seed   int64
	dur    time.Duration
	trace  bool
	outDir string
	out    io.Writer // the metric listing; the caller prints the last line
	// corrupt falsifies one expected answer after the oracle ran, so tests
	// can see a wrong answer counted and the run fail.
	corrupt bool
}

// Set-up is repeated so that setup_s is a median: at least minSetups
// times, and for cheap set-ups until a tenth of the window's length has
// been spent on them.
const (
	minSetups = 3
	maxSetups = 15
)

// errIncorrect marks a run whose outputs were wrong; the process then
// exits non-zero after printing its result.
var errIncorrect = errors.New("incorrect outputs")

// observed is a timed window with the process and cache counters read
// around it.
type observed struct {
	window
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcPauseNs           uint64
	cache               pathsel.CacheStats // deltas over the window; Bytes is the level at its end
	cached              bool
}

// observe runs one timed window between two readings of the runtime's
// and the cache's counters.
func observe(s *system, ref *hostRef, seed int64, dur time.Duration) observed {
	runtime.GC() // start every window from a collected heap
	var m0, m1 runtime.MemStats
	c0, cached := s.est.CacheStats()
	runtime.ReadMemStats(&m0)
	o := observed{window: runWindow(s, ref, seed, dur), cached: cached}
	runtime.ReadMemStats(&m1)
	c1, _ := s.est.CacheStats()
	o.mallocs, o.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	o.gcCycles, o.gcPauseNs = m1.NumGC-m0.NumGC, m1.PauseTotalNs-m0.PauseTotalNs
	o.cache = c1
	o.cache.Hits -= c0.Hits
	o.cache.Misses -= c0.Misses
	o.cache.Puts -= c0.Puts
	o.cache.Evictions -= c0.Evictions
	o.cache.Rejected -= c0.Rejected
	o.cache.LockWaitNs -= c0.LockWaitNs
	return o
}

// checkCounters compares the server's own request accounting with the
// client's tallies: every request sent was counted, and every answer the
// client accepted was counted ok.
func checkCounters(s *system) (nonOK int64, err error) {
	if s.sp.kind != kindServe {
		return 0, nil
	}
	c, err := s.statsCounters()
	if err != nil {
		return 0, fmt.Errorf("/stats: %w", err)
	}
	nonOK = c.Requests - c.OK
	if c.Requests != s.issued.Load() || c.OK != s.answered.Load() {
		return nonOK, fmt.Errorf("/stats counts %d requests, %d ok; the client sent %d and accepted %d",
			c.Requests, c.OK, s.issued.Load(), s.answered.Load())
	}
	return nonOK, nil
}

// prepared is a workload set up, with its oracle filled.
type prepared struct {
	sys *system
	ref *hostRef
	// setupS is the median over the repeated set-ups, each on the
	// reference's scale (wall time × the host speed around it);
	// rawSetupS is the median of the wall times.
	setupS, rawSetupS float64
	setups            int
	oracleS           float64
	accuracy          pathsel.Accuracy
	summaryB          int
}

// prepare sets the workload up repeatedly, keeps the last system, and
// computes the oracle and the deterministic accuracy figures on it.
func prepare(cfg runConfig, repeat bool) (*prepared, error) {
	ref, err := newHostRef(runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	p := &prepared{ref: ref}
	var times, raw []float64
	var pool []entry
	var total time.Duration
	before := ref.burst(refBurst)
	for len(times) < 1 || (repeat && (len(times) < minSetups || (total < cfg.dur/10 && len(times) < maxSetups))) {
		if p.sys != nil {
			p.sys.close()
		}
		t0 := time.Now()
		s, err := setUp(cfg.sp, pool)
		if err != nil {
			p.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		after := ref.burst(refBurst)
		total += d
		raw = append(raw, d.Seconds())
		times = append(times, d.Seconds()*between(before, after).speed())
		p.sys, pool, before = s, s.pool, after
	}
	p.setups, p.setupS, p.rawSetupS = len(times), median(times), median(raw)
	t0 := time.Now()
	if err := fillOracle(p.sys); err != nil {
		p.close()
		return nil, err
	}
	p.oracleS = time.Since(t0).Seconds()
	if cfg.corrupt {
		first := &p.sys.pool[newSequence(len(pool), cfg.sp.zipf, cfg.seed, 0).next()]
		first.want++
		first.est++
	}
	p.accuracy = p.sys.est.Evaluate()
	var buf bytes.Buffer
	if err := p.sys.est.Save(&buf); err != nil {
		p.close()
		return nil, err
	}
	p.summaryB = buf.Len()
	return p, nil
}

// close stops the system and unmaps the reference.
func (p *prepared) close() {
	if p.sys != nil {
		p.sys.close()
	}
	p.ref.close()
}

// runTimed is the untraced run: the end-to-end metrics.
func runTimed(cfg runConfig) (result, error) {
	p, err := prepare(cfg, true)
	if err != nil {
		return result{}, err
	}
	defer p.close()
	o := observe(p.sys, p.ref, cfg.seed, cfg.dur)
	_, statsErr := checkCounters(p.sys)

	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(p.sys)

	values := map[string]float64{
		"setup_s":          p.setupS,
		"throughput_ops_s": o.throughput,
		"latency_p50_us":   o.p50us,
		"latency_p99_us":   o.p99us,
		"live_heap_mb":     float64(ms.HeapAlloc) / (1 << 20),
		"mean_q_error":     p.accuracy.MeanQError,
		"summary_bytes":    float64(p.summaryB),
	}
	m, err := newResult(endToEnd, values)
	if err != nil {
		return result{}, err
	}
	res := result{Workload: cfg.sp.name, Seed: cfg.seed, Attempted: o.attempted, Failed: o.failed, Metrics: m, Slices: o.perSlice}
	res.Correct = o.failed == 0 && o.attempted > 0 && statsErr == nil

	fmt.Fprintf(cfg.out, "%s  seed %d  closed loop, %d client(s), %.3gs window, %d slices\n",
		cfg.sp.name, cfg.seed, cfg.sp.clientCount(), o.elapsed.Seconds(), sliceCount(cfg.dur))
	printMetrics(cfg.out, endToEnd, m, map[string]string{
		"setup_s":          fmt.Sprintf("median of %d set-ups; wall clock %.6g", p.setups, p.rawSetupS),
		"throughput_ops_s": fmt.Sprintf("%d samples; wall clock %.6g", o.samples, o.rawThroughput),
		"latency_p50_us":   fmt.Sprintf("%d samples; wall clock %.6g", o.samples, o.rawP50us),
		"latency_p99_us":   fmt.Sprintf("%d samples beyond it in the median slice; wall clock %.6g", o.beyondP99, o.rawP99us),
		"mean_q_error":     fmt.Sprintf("over %d paths", p.accuracy.Paths),
	})
	fmt.Fprintf(cfg.out, "  %-32s %16.6g %-6s %d failed of %d attempted\n", "failed_share",
		float64(o.failed)/float64(max(o.attempted, 1)), "ratio", o.failed, o.attempted)
	fmt.Fprintf(cfg.out, "  %-32s %16.6g %-6s\n", "oracle_s", p.oracleS, "s")
	fmt.Fprintf(cfg.out, "  %-32s %16.6g %-6s the host's speed on the reference; the four timings above are on its scale\n",
		"host_speed", o.hostSpeed, "ratio")
	printProperties(cfg.out, o)
	if statsErr != nil {
		fmt.Fprintf(cfg.out, "  counters disagree: %v\n", statsErr)
	}
	if !res.Correct {
		return res, errIncorrect
	}
	return res, nil
}

// printProperties lists what the window did to the cache, the scheduler
// and the heap — the properties each workload is defined by.
func printProperties(w io.Writer, o observed) {
	ops := float64(max(o.attempted, 1))
	if o.cached {
		fmt.Fprintf(w, "  cache: hit rate %.3f, %d puts, %d evictions, %d rejected, %.1f MiB resident\n",
			o.cache.HitRate(), o.cache.Puts, o.cache.Evictions, o.cache.Rejected, float64(o.cache.Bytes)/(1<<20))
	} else {
		fmt.Fprintf(w, "  cache: none\n")
	}
	fmt.Fprintf(w, "  scheduler: %.2f tasks/op, %d steals, %d parks\n", float64(o.tasks)/ops, o.steals, o.parks)
	fmt.Fprintf(w, "  heap: %.1f allocs/op, %.0f B/op, %d GC cycles, %.2f ms paused; mean latency %.2f us\n",
		float64(o.mallocs)/ops, float64(o.allocBytes)/ops, o.gcCycles, float64(o.gcPauseNs)/1e6, o.meanUs)
}
