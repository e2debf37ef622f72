package workload

// This file generates query-arrival traces for the serving layer
// (internal/serve, cmd/serveload): a ranked pool of distinct wire-format
// queries whose popularity follows a Zipf law, replayed as an open-loop
// arrival process with exponential inter-arrival times. A fixed cycling
// pool visits every query equally often; real query streams are skewed — a
// few hot queries dominate, with a long cold tail — and whether the
// relation cache's warm speedup survives that skew under concurrent LRU
// mutation is exactly what the trace exists to measure.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"
)

// Zipf parameter defaults: s is the skew exponent (rank r is drawn with
// probability ∝ 1/(v+r)^s; larger s = hotter head), v the offset. Go's
// rand.Zipf requires s > 1 and v ≥ 1.
const (
	DefaultZipfS = 1.2
	DefaultZipfV = 1.0
)

// Arrival-process modes of TraceOptions.Arrival. All three share the
// same mean rate (TraceOptions.Rate); they differ in how arrivals clump,
// which is what overload control is judged against — a Poisson stream
// never concentrates load the way real traffic does.
const (
	// ArrivalExp is the default: exponential inter-arrival gaps, i.e. a
	// Poisson process — maximally memoryless, no bursts beyond chance.
	ArrivalExp = "exp"
	// ArrivalOnOff alternates ON windows (arrivals at the elevated peak
	// rate that preserves the mean) with silent OFF windows: the classic
	// bursty source model. Within an ON window arrivals are Poisson at
	// Rate × (OnDur+OffDur)/OnDur.
	ArrivalOnOff = "onoff"
	// ArrivalGamma draws inter-arrival gaps from a Gamma distribution
	// with mean 1/Rate and shape GammaShape: shape < 1 clumps arrivals
	// tighter than Poisson (heavier burst head and longer gaps), shape 1
	// degenerates to ArrivalExp, shape > 1 smooths toward a pacing clock.
	ArrivalGamma = "gamma"
)

// ON/OFF and Gamma defaults: a 1:3 duty cycle (4× peak factor) and a
// shape that roughly doubles the variance of a Poisson stream.
const (
	DefaultOnDur      = 100 * time.Millisecond
	DefaultOffDur     = 300 * time.Millisecond
	DefaultGammaShape = 0.5
)

// TraceOptions parameterizes ZipfTrace.
type TraceOptions struct {
	// S and V are the Zipf parameters (≤ 0 selects DefaultZipfS /
	// DefaultZipfV). S must resolve > 1 and V ≥ 1.
	S, V float64
	// Rate is the open-loop arrival rate in queries per second:
	// inter-arrival gaps are exponential with mean 1/Rate, so the trace
	// models a Poisson stream whose arrival times are fixed ahead of
	// execution — a replayer must not slow arrivals down when the server
	// lags (that is what "open loop" means; queue wait counts as
	// latency). Rate ≤ 0 puts every arrival at time 0: saturation mode,
	// where a concurrency-bounded replayer measures capacity instead.
	Rate float64
	// N is the number of arrivals (≥ 1).
	N int
	// Seed makes the trace deterministic: same options, same trace.
	Seed int64

	// Arrival selects the arrival-process shape: ArrivalExp (the
	// default, also selected by ""), ArrivalOnOff, or ArrivalGamma. The
	// bursty modes need a positive Rate — a burst shape is meaningless
	// in saturation mode, where every arrival is already at time 0.
	Arrival string
	// OnDur and OffDur are the ON/OFF window lengths of ArrivalOnOff
	// (≤ 0 selects DefaultOnDur / DefaultOffDur). The trace starts at
	// the beginning of an ON window.
	OnDur, OffDur time.Duration
	// GammaShape is the Gamma shape parameter of ArrivalGamma (≤ 0
	// selects DefaultGammaShape). Must resolve to a finite value in
	// (0, 64].
	GammaShape float64
}

// Arrival is one trace entry: a query's popularity rank and the instant,
// relative to the trace start, at which it enters the system.
type Arrival struct {
	// At is the arrival time as an offset from the trace start.
	At time.Duration
	// Rank is the query's popularity rank — its index into the pool.
	Rank int
}

// ZipfTrace draws an open-loop query-arrival trace over a ranked pool of
// poolSize queries: N arrivals whose ranks are Zipf draws and whose
// arrival times form a Poisson process at Rate (or the burst shape
// Arrival selects). The caller binds each rank to its pool entry — the
// serving layer's RankQueries does this for wire-format pools. The trace
// is a pure function of its arguments: replaying, benchmarking, and
// fuzzing all see the same arrivals for the same seed.
func ZipfTrace(poolSize int, opt TraceOptions) ([]Arrival, error) {
	if poolSize < 1 {
		return nil, fmt.Errorf("workload: trace needs a pool of ≥ 1 queries, got %d", poolSize)
	}
	if opt.N < 1 {
		return nil, fmt.Errorf("workload: trace needs N ≥ 1 arrivals, got %d", opt.N)
	}
	s, v := opt.S, opt.V
	if s <= 0 {
		s = DefaultZipfS
	}
	if v <= 0 {
		v = DefaultZipfV
	}
	if !(s > 1) || !(v >= 1) || math.IsInf(s, 0) || math.IsInf(v, 0) {
		return nil, fmt.Errorf("workload: zipf needs finite s > 1 and v ≥ 1, got s=%v v=%v", s, v)
	}
	// A positive rate below one query per ~17 minutes (or a non-finite
	// one) is a caller bug, and tiny rates would overflow the Duration
	// arithmetic — reject instead of generating a nonsense trace.
	if opt.Rate > 0 && (opt.Rate < 1e-3 || math.IsInf(opt.Rate, 0)) {
		return nil, fmt.Errorf("workload: rate %v outside [1e-3, +Inf)", opt.Rate)
	}
	if math.IsNaN(opt.Rate) {
		return nil, fmt.Errorf("workload: rate is NaN")
	}
	mode := opt.Arrival
	if mode == "" {
		mode = ArrivalExp
	}
	switch mode {
	case ArrivalExp, ArrivalOnOff, ArrivalGamma:
	default:
		return nil, fmt.Errorf("workload: unknown arrival mode %q", opt.Arrival)
	}
	if mode != ArrivalExp && opt.Rate <= 0 {
		return nil, fmt.Errorf("workload: %s arrivals need a positive rate (saturation mode has no burst shape)", mode)
	}
	onDur, offDur := opt.OnDur, opt.OffDur
	if onDur <= 0 {
		onDur = DefaultOnDur
	}
	if offDur <= 0 {
		offDur = DefaultOffDur
	}
	shape := opt.GammaShape
	if shape <= 0 {
		shape = DefaultGammaShape
	}
	if mode == ArrivalGamma && (math.IsNaN(shape) || math.IsInf(shape, 0) || shape > 64) {
		return nil, fmt.Errorf("workload: gamma shape %v outside (0, 64]", opt.GammaShape)
	}
	// The ON/OFF peak rate preserves the requested mean over a full
	// ON+OFF cycle: all arrivals land in the ON fraction of the time.
	peak := opt.Rate * float64(onDur+offDur) / float64(onDur)
	rng := rand.New(rand.NewSource(opt.Seed))
	zipf := rand.NewZipf(rng, s, v, uint64(poolSize-1))
	out := make([]Arrival, opt.N)
	var at time.Duration
	var onTime time.Duration // ArrivalOnOff: cumulative ON-window time
	for i := range out {
		if opt.Rate > 0 {
			switch mode {
			case ArrivalExp:
				gap := time.Duration(rng.ExpFloat64() / opt.Rate * float64(time.Second))
				if next := at + gap; next >= at {
					at = next // saturate instead of wrapping on absurd traces
				}
			case ArrivalGamma:
				// Gamma(shape, θ) with θ = 1/(Rate·shape), so the mean gap
				// stays 1/Rate at every shape.
				gap := time.Duration(gammaRand(rng, shape) / (opt.Rate * shape) * float64(time.Second))
				if next := at + gap; next >= at {
					at = next
				}
			case ArrivalOnOff:
				// Arrivals are Poisson at the peak rate within ON windows;
				// mapping cumulative ON-time onto the ON/OFF cycle makes the
				// OFF windows silent by construction.
				gap := time.Duration(rng.ExpFloat64() / peak * float64(time.Second))
				if next := onTime + gap; next >= onTime {
					onTime = next
					cycles := int64(onTime / onDur)
					if t := time.Duration(cycles)*(onDur+offDur) + onTime%onDur; t >= at {
						at = t // monotone; saturates if the cycle mapping overflows
					}
				}
			}
		}
		// math/rand's Zipf overflows internally at extreme s and can
		// return ranks past imax; such a distribution is a delta at rank
		// 0 anyway, so clamp to the hottest query.
		rank := int(zipf.Uint64())
		if rank < 0 || rank >= poolSize {
			rank = 0
		}
		out[i] = Arrival{At: at, Rank: rank}
	}
	return out, nil
}

// gammaRand draws one Gamma(k, 1) variate via Marsaglia–Tsang squeeze
// rejection. Shapes below 1 are boosted through Gamma(k+1)·U^(1/k);
// U = 0 (possible from Float64) yields a zero gap, which is harmless.
func gammaRand(rng *rand.Rand, k float64) float64 {
	if k < 1 {
		return gammaRand(rng, k+1) * math.Pow(rng.Float64(), 1/k)
	}
	d := k - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// QueryPool builds a deterministic ranked pool of n distinct label paths
// with lengths in [1, maxLen] over the label vocabulary, each rendered
// as its wire form "a/b/c". Ranks are assigned in draw order, so the
// pool is already in popularity order for ZipfTrace. When the path
// domain holds fewer than n distinct paths the pool is the whole domain
// (shuffled), so callers may ask for more than a small graph can supply.
func QueryPool(labels []string, maxLen, n int, seed int64) ([]string, error) {
	numLabels := len(labels)
	if numLabels < 1 || maxLen < 1 || n < 1 {
		return nil, fmt.Errorf("workload: pool needs numLabels, maxLen, n ≥ 1 (got %d, %d, %d)",
			numLabels, maxLen, n)
	}
	// Domain size Σ numLabels^len for len in [1, maxLen], saturating so
	// huge vocabularies cannot overflow.
	domain := 0
	pow := 1
	for l := 1; l <= maxLen; l++ {
		if pow > (1<<31)/numLabels {
			domain = 1 << 31
			break
		}
		pow *= numLabels
		domain += pow
		if domain >= 1<<31 {
			domain = 1 << 31
			break
		}
	}
	if n > domain {
		n = domain
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	ids := make([]int, maxLen)
	parts := make([]string, maxLen)
	for len(out) < n {
		p := ids[:1+rng.Intn(maxLen)]
		for i := range p {
			p[i] = rng.Intn(numLabels)
			parts[i] = labels[p[i]]
		}
		// Deduplicate by id path: the domain bound above counts id paths,
		// so a repeated label name cannot stall the loop.
		k := fmt.Sprint(p)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, strings.Join(parts[:len(p)], "/"))
	}
	return out, nil
}
