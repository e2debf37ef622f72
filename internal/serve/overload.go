package serve

// This file is the server-wide overload controller: an adaptive
// concurrency limiter with a bounded, deadline-aware admission queue
// (shed with a Retry-After hint once a request's remaining budget
// cannot cover the queue's observed service time), plus the brownout
// state machine that escalates estimate-degradation under sustained
// pressure and de-escalates when it clears. The controller is entirely
// event-driven — admissions, completions, and stats reads advance it —
// so an enabled server runs no background goroutine and an idle server
// does no work.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/pathsel"
)

// OverloadConfig tunes the server-wide overload controller. MaxInFlight
// ≤ 0 — the zero value — disables it entirely: every request executes
// immediately, exactly as before the controller existed.
type OverloadConfig struct {
	// MaxInFlight > 0 enables the controller: at most this many query
	// executions run concurrently (a /batch counts as one). It is also
	// the adaptive limit's ceiling.
	MaxInFlight int
	// MinInFlight floors the adaptive limit (≤ 0 selects 1).
	MinInFlight int
	// LatencyTarget > 0 enables adaptation: when the observed
	// service-time EWMA exceeds the target the in-flight limit decays
	// multiplicatively toward MinInFlight; when requests queue while the
	// EWMA is within target it grows additively back toward MaxInFlight.
	// Zero pins the limit at MaxInFlight.
	LatencyTarget time.Duration
	// QueueLimit bounds the admission queue (≤ 0 selects
	// 4×MaxInFlight). A request arriving to a full queue is shed
	// immediately with 429 + Retry-After.
	QueueLimit int
	// QueueTimeout is the longest a request may wait queued (≤ 0
	// selects 100ms). The effective budget is the smaller of this and
	// the request's own remaining context deadline, and shedding is
	// predictive: a request whose expected wait — queue position times
	// the service-time EWMA over the limit — exceeds its budget is shed
	// on arrival instead of timing out in line.
	QueueTimeout time.Duration
	// Brownout enables the degradation tiers. Under sustained pressure
	// (queue depth or shed rate at or above brownoutHi across brownoutUp
	// ticks) the server escalates a tier; each tier above 0 answers
	// queries whose plan cost exceeds a percentile of recently observed
	// costs with marked histogram estimates (tier 1: p90, tier 2: p50,
	// tier 3: every query with any join cost) instead of shedding them.
	// Pressure at or below brownoutLo across brownoutDown ticks
	// de-escalates one tier.
	Brownout bool
}

// The controller's fixed tuning.
const (
	defaultQueueTimeout = 100 * time.Millisecond
	// tickEvery is the minimum interval between brownout evaluations.
	// Ticks piggyback on admissions, completions and stats reads; there
	// is no timer goroutine.
	tickEvery = 20 * time.Millisecond
	// brownoutHi and brownoutLo are the escalate and de-escalate
	// pressure watermarks; the gap between them is the hysteresis band
	// that keeps the tier from flapping.
	brownoutHi, brownoutLo = 0.75, 0.25
	// brownoutUp and brownoutDown are how many consecutive ticks the
	// pressure must sit past a watermark before the tier moves;
	// de-escalation is deliberately slower.
	brownoutUp, brownoutDown = 2, 3
	// maxBrownoutTier is the deepest degradation tier: every query with
	// any join cost answers its estimate.
	maxBrownoutTier = 3
	// costRingSize is how many recent plan costs the brownout
	// percentile thresholds are computed over.
	costRingSize = 256
	// adaptEvery is how many completions pass between adaptive-limit
	// adjustments — enough samples for the EWMA to mean something,
	// small enough to track bursts.
	adaptEvery = 16
	// ewmaAlpha weights the newest service-time observation.
	ewmaAlpha = 0.3
	// maxRetryAfter caps the Retry-After hint handed to shed clients.
	maxRetryAfter = 5 * time.Second
)

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.MinInFlight <= 0 {
		c.MinInFlight = 1
	}
	if c.MinInFlight > c.MaxInFlight {
		c.MinInFlight = c.MaxInFlight
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 4 * c.MaxInFlight
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = defaultQueueTimeout
	}
	return c
}

// shedError reports a request shed by the admission queue; RetryAfter
// is the server's estimate of when capacity will exist again. It maps
// to 429 + CodeOverloaded + a Retry-After header on the wire.
type shedError struct {
	retryAfter time.Duration
	reason     string
}

func (e *shedError) Error() string {
	return fmt.Sprintf("serve: overloaded (%s), retry after %v", e.reason, e.retryAfter)
}

// errShed is the sentinel every shedError unwraps to — the cause its
// wireTable row matches.
var errShed = errors.New("serve: overloaded")

func (e *shedError) Unwrap() error { return errShed }

// errBrownout marks an answer the brownout tier degraded: its plan cost
// more than the tier's threshold, so the server answered its histogram
// estimate without executing it. It is only ever a DegradedBy, never an
// error answer.
var errBrownout = errors.New("serve: degraded by brownout")

// errDraining refuses work arriving after StartDrain; it maps to 503 +
// CodeDraining so load balancers rotate the replica out while in-flight
// requests finish.
var errDraining = errors.New("serve: draining, not accepting new queries")

// waiter is one queued request. ready is closed exactly once, by the
// promoter that hands the waiter an in-flight slot; admitted
// disambiguates the promote-vs-abandon race under the limiter's lock.
type waiter struct {
	ready    chan struct{}
	admitted bool
}

// limiter is the controller's state, all under one mutex — every
// operation is a few comparisons, so a single lock outperforms anything
// cleverer at the request rates one estimator can serve.
type limiter struct {
	cfg OverloadConfig
	// now is the controller's one clock: every tick, queue budget and
	// service time reads it (time.Now outside tests).
	now func() time.Time

	mu       sync.Mutex
	limit    int
	inFlight int
	peak     int
	queue    []*waiter

	svcEWMA     float64 // observed service time, ns
	completions int     // since the last adaptation

	// Brownout state: pressure accumulators since the last tick, the
	// hysteresis counters, and the cost ring the tier thresholds are
	// cut from.
	tier          int
	upTicks       int
	downTicks     int
	lastTick      time.Time
	admittedTick  int64
	shedTick      int64
	costRing      [costRingSize]float64
	costN, costLn int
	costThreshold float64
}

func newLimiter(cfg OverloadConfig) *limiter {
	cfg = cfg.withDefaults()
	l := &limiter{cfg: cfg, now: time.Now, limit: cfg.MaxInFlight}
	l.lastTick = l.now()
	return l
}

// acquire admits the request (returning the brownout tier's cost
// threshold, 0 for none), queues it, or refuses it: a *shedError once
// the queue cannot serve it in budget, or the request's own context
// error if it dies while queued. On a nil error the caller owns one
// in-flight slot and must call release.
func (l *limiter) acquire(ctx context.Context) (float64, error) {
	l.mu.Lock()
	now := l.now()
	l.tickLocked(now)
	if l.inFlight < l.limit && len(l.queue) == 0 {
		l.admitLocked()
		th := l.costThreshold
		l.mu.Unlock()
		return th, nil
	}

	// No free slot: decide, on arrival, whether the queue can serve this
	// request within its budget.
	budget := l.cfg.QueueTimeout
	if dl, ok := ctx.Deadline(); ok {
		if rem := dl.Sub(now); rem < budget {
			budget = rem
		}
	}
	expected := l.expectedWaitLocked(len(l.queue) + 1)
	if len(l.queue) >= l.cfg.QueueLimit || expected > budget || budget <= 0 {
		err := l.shedLocked(expected, "admission queue over budget")
		l.mu.Unlock()
		return 0, err
	}
	w := &waiter{ready: make(chan struct{})}
	l.queue = append(l.queue, w)
	l.mu.Unlock()

	timer := time.NewTimer(budget)
	defer timer.Stop()
	var abandonErr error
	select {
	case <-w.ready:
		// Promoted: the slot is already ours (counted by the promoter).
		l.mu.Lock()
		th := l.costThreshold
		l.mu.Unlock()
		return th, nil
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			abandonErr = fmt.Errorf("%w: while queued for admission", pathsel.ErrDeadlineExceeded)
		} else {
			abandonErr = fmt.Errorf("%w: while queued for admission", pathsel.ErrCancelled)
		}
	case <-timer.C:
		abandonErr = nil // queue budget expired → shed below
	}

	// The abandon path. A promotion may have raced the timer/cancel: if the
	// slot is already ours, keep it — the execution observes the dead
	// context (if any) itself, and giving the slot back here would just
	// re-run the same race one queue position later.
	l.mu.Lock()
	defer l.mu.Unlock()
	if w.admitted {
		return l.costThreshold, nil
	}
	for i, qw := range l.queue {
		if qw == w {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			break
		}
	}
	if abandonErr != nil {
		return 0, abandonErr
	}
	return 0, l.shedLocked(l.expectedWaitLocked(len(l.queue)+1), "queue budget expired")
}

// admitLocked counts one request into an in-flight slot.
func (l *limiter) admitLocked() {
	l.inFlight++
	l.admittedTick++
	if l.inFlight > l.peak {
		l.peak = l.inFlight
	}
}

// shedLocked counts one shed and builds its retry hint.
func (l *limiter) shedLocked(expected time.Duration, reason string) error {
	l.shedTick++
	retry := expected
	if retry <= 0 {
		retry = l.cfg.QueueTimeout
	}
	if retry > maxRetryAfter {
		retry = maxRetryAfter
	}
	if retry < time.Millisecond {
		retry = time.Millisecond
	}
	return &shedError{retryAfter: retry, reason: reason}
}

// expectedWaitLocked estimates how long the request at the given queue
// position will wait for a slot: position × EWMA service time, spread
// over the current limit. Before any completion the EWMA is zero and
// the estimate optimistic — the queue budget still bounds the wait.
func (l *limiter) expectedWaitLocked(position int) time.Duration {
	if l.svcEWMA <= 0 || l.limit <= 0 {
		return 0
	}
	return time.Duration(float64(position) * l.svcEWMA / float64(l.limit))
}

// release returns a slot after an execution took service long, promotes
// queued waiters, and runs the adaptation and brownout machinery.
func (l *limiter) release(service time.Duration) {
	l.mu.Lock()
	l.inFlight--
	if service > 0 {
		if l.svcEWMA == 0 {
			l.svcEWMA = float64(service)
		} else {
			l.svcEWMA += ewmaAlpha * (float64(service) - l.svcEWMA)
		}
	}
	l.completions++
	if l.completions >= adaptEvery {
		l.adaptLocked()
	}
	l.promoteLocked()
	l.tickLocked(l.now())
	l.mu.Unlock()
}

// promoteLocked hands free slots to the queue head, FIFO.
func (l *limiter) promoteLocked() {
	for l.inFlight < l.limit && len(l.queue) > 0 {
		w := l.queue[0]
		l.queue = l.queue[1:]
		w.admitted = true
		l.admitLocked()
		close(w.ready)
	}
}

// adaptLocked is the AIMD step: decay the limit multiplicatively while
// the service-time EWMA overshoots the target, regrow it additively
// while requests queue within target.
func (l *limiter) adaptLocked() {
	l.completions = 0
	if l.cfg.LatencyTarget <= 0 {
		return
	}
	switch {
	case l.svcEWMA > float64(l.cfg.LatencyTarget):
		step := l.limit / 8
		if step < 1 {
			step = 1
		}
		if l.limit -= step; l.limit < l.cfg.MinInFlight {
			l.limit = l.cfg.MinInFlight
		}
	case len(l.queue) > 0 && l.limit < l.cfg.MaxInFlight:
		l.limit++
	}
}

// recordCost feeds one answered query's plan cost into the ring the
// brownout thresholds are computed from.
func (l *limiter) recordCost(cost float64) {
	if !l.cfg.Brownout || math.IsNaN(cost) || cost < 0 {
		return
	}
	l.mu.Lock()
	l.costRing[l.costN%costRingSize] = cost
	l.costN++
	if l.costLn < costRingSize {
		l.costLn++
	}
	l.mu.Unlock()
}

// tickLocked advances the brownout state machine when at least
// tickEvery has passed: the pressure signal is the worse of queue
// occupancy and the shed fraction since the last tick, pushed through
// the hysteresis counters; the cost threshold is recut from the ring on
// every tick so the tier tracks the workload actually being served.
func (l *limiter) tickLocked(now time.Time) {
	if !l.cfg.Brownout || now.Sub(l.lastTick) < tickEvery {
		return
	}
	l.lastTick = now
	sig := float64(len(l.queue)) / float64(l.cfg.QueueLimit)
	if total := l.admittedTick + l.shedTick; total > 0 {
		if f := float64(l.shedTick) / float64(total); f > sig {
			sig = f
		}
	}
	l.admittedTick, l.shedTick = 0, 0
	switch {
	case sig >= brownoutHi:
		l.downTicks = 0
		if l.upTicks++; l.upTicks >= brownoutUp && l.tier < maxBrownoutTier {
			l.tier++
			l.upTicks = 0
		}
	case sig <= brownoutLo:
		l.upTicks = 0
		if l.downTicks++; l.downTicks >= brownoutDown && l.tier > 0 {
			l.tier--
			l.downTicks = 0
		}
	default:
		l.upTicks, l.downTicks = 0, 0
	}
	l.costThreshold = l.thresholdLocked()
}

// thresholdLocked cuts the current tier's cost threshold from the
// observed-cost ring: tier 1 degrades above p90, tier 2 above p50, and
// tier 3 degrades every query with any join cost at all, whatever the
// ring holds.
func (l *limiter) thresholdLocked() float64 {
	switch {
	case l.tier == 0:
		return 0
	case l.tier >= maxBrownoutTier:
		return math.SmallestNonzeroFloat64
	case l.costLn == 0:
		return 0
	}
	sorted := make([]float64, l.costLn)
	copy(sorted, l.costRing[:l.costLn])
	sort.Float64s(sorted)
	q := 0.9
	if l.tier == 2 {
		q = 0.5
	}
	th := sorted[int(q*float64(l.costLn-1))]
	if th <= 0 {
		// Everything observed so far was free (single-label plans);
		// degrade anything costlier than that.
		th = math.SmallestNonzeroFloat64
	}
	return th
}

// hardOverloaded reports whether the controller is saturated right now
// — the queue is full or brownout is at its deepest tier — the signal
// /healthz turns into a 503 so load balancers rotate the replica out.
func (l *limiter) hardOverloaded() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tickLocked(l.now())
	return l.tier >= maxBrownoutTier || len(l.queue) >= l.cfg.QueueLimit
}

// OverloadStats is the controller section of /stats.
type OverloadStats struct {
	Enabled bool `json:"enabled"`
	// Limit is the current adaptive in-flight limit; MaxInFlight its
	// configured ceiling.
	Limit       int `json:"limit"`
	MaxInFlight int `json:"max_in_flight"`
	// InFlight and PeakInFlight count concurrent executions holding
	// slots (peak since start — the test hook pinning that shed and
	// queued requests never hold execution capacity).
	InFlight     int `json:"in_flight"`
	PeakInFlight int `json:"peak_in_flight"`
	// QueueDepth is the current admission-queue occupancy.
	QueueDepth int `json:"queue_depth"`
	QueueLimit int `json:"queue_limit"`
	// BrownoutTier is the current degradation tier (0 = off).
	BrownoutTier int `json:"brownout_tier"`
	// CostThreshold is the plan-cost cut above which queries currently
	// degrade to estimates; 0 when brownout is off or at tier 0.
	CostThreshold float64 `json:"cost_threshold,omitempty"`
	// SvcEwmaNs is the observed service-time EWMA the shedding rule and
	// adaptation run on.
	SvcEwmaNs int64 `json:"svc_ewma_ns"`
	// Shed counts requests refused with 429 + Retry-After;
	// BrownoutDegraded counts answers degraded by the brownout policy
	// (they also count in Counters.Degraded).
	Shed             int64 `json:"shed"`
	BrownoutDegraded int64 `json:"brownout_degraded"`
	// Draining reports the server's drain state (StartDrain).
	Draining bool `json:"draining"`
}

// stats snapshots the limiter (ticking first, so a pressure change is
// observable by polling /stats alone).
func (l *limiter) stats() OverloadStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tickLocked(l.now())
	return OverloadStats{
		Enabled:       true,
		Limit:         l.limit,
		MaxInFlight:   l.cfg.MaxInFlight,
		InFlight:      l.inFlight,
		PeakInFlight:  l.peak,
		QueueDepth:    len(l.queue),
		QueueLimit:    l.cfg.QueueLimit,
		BrownoutTier:  l.tier,
		CostThreshold: l.costThreshold,
		SvcEwmaNs:     int64(l.svcEWMA),
	}
}
