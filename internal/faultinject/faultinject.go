// Package faultinject is the engine's build-tag-free fault-injection
// hook: named sites in the scheduling, execution, and caching layers
// (internal/sched, internal/exec, internal/relcache) call Fire or Fail at
// points where real deployments fail — a worker body about to run, a
// compose step about to start, a cache entry about to be cloned — and an
// installed Injector decides whether that visit panics, sleeps, or
// reports a simulated allocation failure. In production nothing is
// installed and every site costs one atomic load and a nil check, so the
// hooks stay compiled in (no build tags, no test-only binaries) without
// measurable overhead.
//
// Chaos tests install an Injector with deterministic rules ("panic on
// the 3rd visit to sched.task", "fail every relcache.put"), drive the
// engine under -race, and assert the containment contract: injected
// panics surface as typed errors instead of crashing the process,
// injected delays trip deadlines into typed cancellations, injected
// allocation failures degrade service (a skipped cache insert) without
// corrupting results, and every abort path releases its goroutines and
// pooled relations. Survival runs — rules that never trigger — must be
// bit-identical to runs with no injector at all, which pins that the
// hooks themselves are behavior-free.
//
// Site names are plain strings owned by the host packages (the package
// deliberately defines no site registry — a site is whatever a caller
// names). The sites currently wired in:
//
//	sched.task      before each scheduler task body   (Fire)
//	exec.step       before each compose/join step     (Fire)
//	exec.shard      inside each sharded kernel task   (Fire)
//	relcache.put    before packing a cache entry      (Fail)
//	serve.admit     before overload admission control (Fire)
package faultinject

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Action is what a triggered rule does to the visiting goroutine.
type Action int

const (
	// ActPanic makes the visit panic with the rule's PanicValue (or a
	// descriptive default), exercising the host layer's containment.
	ActPanic Action = iota
	// ActDelay makes the visit sleep for the rule's Delay, exercising
	// deadline and cancellation paths.
	ActDelay
	// ActFail makes a Fail call report true, simulating a resource
	// allocation failure the site must degrade around.
	ActFail
)

// Rule arms one site: after Skip non-triggering visits, the next Count
// visits trigger the Action (Count ≤ 0 means every visit from then on).
type Rule struct {
	// Site is the injection point's name.
	Site string
	// Skip is the number of visits that pass through before the rule
	// starts triggering.
	Skip int
	// Count is how many visits trigger once armed; ≤ 0 means unlimited.
	Count int
	// Action is what a triggered visit does.
	Action Action
	// PanicValue is the value a Panic action panics with (nil selects a
	// descriptive default naming the site).
	PanicValue any
	// Delay is the sleep duration of a Delay action.
	Delay time.Duration
	// Jitter widens a Delay action: each triggered visit sleeps Delay
	// plus a uniform random extra in [0, Jitter), drawn from the
	// injector's own seeded source so a chaos run stays reproducible.
	// Jittered delays model the realistic overload pattern — service
	// times that vary visit to visit instead of stalling uniformly.
	Jitter time.Duration
	// Wait, when set, is what a triggered Delay visit does instead of
	// sleeping: the visit returns when Wait does. It makes a delay last
	// until a condition holds, for a test that must not race the clock.
	Wait func()
}

// ruleState is one armed rule plus its visit counters.
type ruleState struct {
	Rule
	visits    int
	triggered int
}

// Injector is a set of armed rules plus per-site visit counters. Install
// it to activate; all methods are safe for concurrent use (injected
// sites run on scheduler workers).
type Injector struct {
	mu     sync.Mutex
	rules  map[string][]*ruleState
	visits map[string]int
	rng    *rand.Rand // jitter source; fixed seed keeps chaos runs reproducible
}

// NewInjector returns an empty injector; arm it with Add and activate it
// with Install.
func NewInjector(rules ...Rule) *Injector {
	inj := &Injector{
		rules:  map[string][]*ruleState{},
		visits: map[string]int{},
		rng:    rand.New(rand.NewSource(1)),
	}
	for _, r := range rules {
		inj.Add(r)
	}
	return inj
}

// Add arms one rule.
func (inj *Injector) Add(r Rule) {
	inj.mu.Lock()
	inj.rules[r.Site] = append(inj.rules[r.Site], &ruleState{Rule: r})
	inj.mu.Unlock()
}

// Visits returns how many times the site has been visited (Fire or Fail)
// since installation — the assertion hook of chaos tests.
func (inj *Injector) Visits(site string) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.visits[site]
}

// Triggered returns how many visits to the site actually triggered a
// rule.
func (inj *Injector) Triggered(site string) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	n := 0
	for _, rs := range inj.rules[site] {
		n += rs.triggered
	}
	return n
}

// visit records one visit and returns the rule to trigger, if any, plus
// the visit's jitter draw (the rng lives under the lock). The
// panic/sleep itself happens outside the lock so a delayed or panicking
// site never blocks other sites.
func (inj *Injector) visit(site string, want Action) (*Rule, time.Duration) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.visits[site]++
	for _, rs := range inj.rules[site] {
		if rs.Action != want && !(want == ActPanic && rs.Action == ActDelay) {
			// Fire serves Panic and Delay rules; Fail serves Fail rules.
			continue
		}
		rs.visits++
		if rs.visits <= rs.Skip {
			continue
		}
		if rs.Count > 0 && rs.triggered >= rs.Count {
			continue
		}
		rs.triggered++
		var jitter time.Duration
		if rs.Action == ActDelay && rs.Jitter > 0 {
			jitter = time.Duration(inj.rng.Int63n(int64(rs.Jitter)))
		}
		return &rs.Rule, jitter
	}
	return nil, 0
}

// active is the process-wide installed injector; nil in production.
var active atomic.Pointer[Injector]

// Install activates the injector process-wide. Tests must Uninstall
// (typically via t.Cleanup) before the next test runs.
func Install(inj *Injector) { active.Store(inj) }

// Uninstall deactivates fault injection.
func Uninstall() { active.Store(nil) }

// Fire visits a site that can absorb a panic or a delay. With no
// injector installed it is a single atomic load. A triggered Panic rule
// panics with its value; a triggered Delay rule sleeps.
func Fire(site string) {
	inj := active.Load()
	if inj == nil {
		return
	}
	r, jitter := inj.visit(site, ActPanic)
	if r == nil {
		return
	}
	switch r.Action {
	case ActDelay:
		if r.Wait != nil {
			r.Wait()
		} else {
			time.Sleep(r.Delay + jitter)
		}
	case ActPanic:
		v := r.PanicValue
		if v == nil {
			v = "faultinject: injected panic at " + site
		}
		panic(v)
	}
}

// Fail visits a site that can degrade around a simulated allocation
// failure and reports whether the site should fail this visit. With no
// injector installed it is a single atomic load returning false.
func Fail(site string) bool {
	inj := active.Load()
	if inj == nil {
		return false
	}
	r, _ := inj.visit(site, ActFail)
	return r != nil
}
