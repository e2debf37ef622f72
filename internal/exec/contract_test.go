package exec

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/paths"
	"repro/internal/relcache"
	"repro/internal/sched"
)

// planShape is one shape of plan handed to Run, and the oracle a survivor
// must be bit-identical to.
type planShape struct {
	name   string
	plan   *DagPlan
	oracle func(*bitset.HybridRelation) bool
}

// contractShapes returns the three plan shapes over one graph: an
// interior-start zig-zag plan, a bushy join of two zig-zag halves, and a
// plan whose fold joins a bushy run block with a repetition element.
func contractShapes(t *testing.T, g *graph.CSR) []planShape {
	// The bushy halves spell different label sequences, so that over a cold
	// cache the right child does not adopt what the left one published:
	// both children build, and the step-panic cases land in each of them.
	p := paths.Path{0, 1, 1, 0}
	tree := &PlanTree{Lo: 0, Hi: 4, Start: -1,
		Left:  &PlanTree{Lo: 0, Hi: 2, Start: 0},
		Right: &PlanTree{Lo: 2, Hi: 4, Start: 2},
	}
	dense, _ := oracle.ExecuteDense(g, p, oracle.Forward)
	rep := RPQElem{Labels: []int{0}, MinRep: 1, MaxRep: 2}
	dag := &RPQDag{Elems: append(PathDag(p).Elems, rep)}
	dp := &DagPlan{Elems: dag.Elems, Tree: &PlanTree{Lo: 0, Hi: 5, Start: -1,
		Left: tree, Right: &PlanTree{Lo: 4, Hi: 5, Start: -1}}}
	union := expansionUnion(t, g, dag, Options{})
	isDense := func(rel *bitset.HybridRelation) bool { return oracle.EqualRelation(rel, dense) }
	return []planShape{
		{"zigzag", startPlan(p, 1), isDense},
		{"bushy", PathPlan(p, tree), isDense},
		{"dag", dp, union.Equal},
	}
}

// operandShapes returns the plan shapes whose steps read a label from the
// graph and nothing else: the two length-2 leaves whose only step is the
// first one, rightward and leftward, and two plans whose fold composes
// through a label set — an alternation, and an optional label with its
// skip term followed by a one-label run.
func operandShapes(t *testing.T, g *graph.CSR) []planShape {
	p := paths.Path{0, 1}
	dense, _ := oracle.ExecuteDense(g, p, oracle.Forward)
	isDense := func(rel *bitset.HybridRelation) bool { return oracle.EqualRelation(rel, dense) }
	shapes := []planShape{{"first-right", startPlan(p, 0), isDense}, {"first-left", startPlan(p, 1), isDense}}
	label := func(l int) RPQElem { return RPQElem{Labels: []int{l}, MinRep: 1, MaxRep: 1} }
	// A two-label prefix is large enough on this graph that the steps
	// through the label sets shard.
	for name, d := range map[string]*RPQDag{
		"through-alt":      {Elems: []RPQElem{label(0), label(1), {Labels: []int{0, 1}, MinRep: 1, MaxRep: 1}}},
		"through-optional": {Elems: []RPQElem{label(0), label(1), {Labels: []int{1}, MinRep: 0, MaxRep: 1}, label(0)}},
	} {
		shapes = append(shapes, planShape{name, zeroPlan(g, d), expansionUnion(t, g, d, Options{}).Equal})
	}
	return shapes
}

// fusedShapes returns the plan shapes whose steps carry an identity term
// (bitset.HybridRelation.Extend): an optional first block before a label
// (eps-through, `a?/b`), an optional last block (skip-root, `a/b?`, whose
// last step is counted when nothing publishes it), both (eps-skip,
// `a?/b?/c`), a lone unrolled alternation and a lone unrolled power, whose
// skip steps build U (unrolled, `(a|b){1,3}`, and unrolled-power,
// `b{2,3}`), and an unrolled element joined after an optional prefix
// (eps-join, `a?/b{2,3}`).
func fusedShapes(t *testing.T, g *graph.CSR) []planShape {
	label := func(l int) RPQElem { return RPQElem{Labels: []int{l}, MinRep: 1, MaxRep: 1} }
	opt := func(l int) RPQElem { return RPQElem{Labels: []int{l}, MinRep: 0, MaxRep: 1} }
	power := RPQElem{Labels: []int{1}, MinRep: 2, MaxRep: 3}
	var shapes []planShape
	for _, c := range []struct {
		name  string
		elems []RPQElem
	}{
		{"eps-through", []RPQElem{opt(0), label(1)}},
		{"skip-root", []RPQElem{label(0), opt(1)}},
		{"eps-skip", []RPQElem{opt(0), opt(1), label(0)}},
		{"unrolled", []RPQElem{{Labels: []int{0, 1}, MinRep: 1, MaxRep: 3}}},
		{"unrolled-power", []RPQElem{power}},
		{"eps-join", []RPQElem{opt(0), power}},
	} {
		d := &RPQDag{Elems: c.elems}
		shapes = append(shapes, planShape{c.name, zeroPlan(g, d), expansionUnion(t, g, d, Options{}).Equal})
	}
	return shapes
}

// wildcardShape is the single-element `*` plan: one multi-label base and
// no step boundary, so the only kernel a cancellation can land in is the
// one-pass fill of the base.
func wildcardShape(t *testing.T, g *graph.CSR) planShape {
	all := make([]int, g.NumLabels())
	for l := range all {
		all[l] = l
	}
	dag := &RPQDag{Elems: []RPQElem{{Labels: all, MinRep: 1, MaxRep: 1}}}
	return planShape{"wildcard", zeroPlan(g, dag), expansionUnion(t, g, dag, Options{}).Equal}
}

// abortCase is one way to kill an execution: arm prepares the options
// and the fault injector (returning a cleanup), and want reports whether
// the returned error is the typed one the case must produce.
type abortCase struct {
	name string
	arm  func(opt *Options, c *Canceller) (cleanup func())
	want func(error) bool
	// survives marks a case the execution may legitimately outlive (the
	// fault site is never visited at this worker count, or by a shape
	// that crosses no step boundary).
	survives bool
}

func isPanicError(err error) bool {
	var pe *sched.PanicError
	return errors.As(err, &pe)
}

func armFault(r faultinject.Rule) func(*Options, *Canceller) func() {
	return func(*Options, *Canceller) func() {
		faultinject.Install(faultinject.NewInjector(r))
		return faultinject.Uninstall
	}
}

// armDeadline wires a 3 ms context deadline into the execution through
// NewCancellerContext and arms a delay at count visits to site (≤ 0: every
// visit) that lasts until the deadline has passed and the canceller
// reports it. A fixed sleep could end before context.AfterFunc's goroutine
// raised the canceller on a loaded host, and the next poll would pass; a
// wait past 10 s panics instead, which fails the case.
func armDeadline(site string, count int) func(*Options, *Canceller) func() {
	return func(opt *Options, _ *Canceller) func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
		canc, release := NewCancellerContext(ctx)
		opt.Cancel = canc
		faultinject.Install(faultinject.NewInjector(faultinject.Rule{
			Site: site, Count: count, Action: faultinject.ActDelay,
			Wait: func() {
				limit := time.Now().Add(10 * time.Second)
				for ctx.Err() == nil || !errors.Is(canc.Err(), ErrDeadlineExceeded) {
					if time.Now().After(limit) {
						panic("contract: the canceller never reported the deadline")
					}
					time.Sleep(50 * time.Microsecond)
				}
			}}))
		return func() { release(); cancel(); faultinject.Uninstall() }
	}
}

// contractCases returns the abort table for a shape whose surviving run
// crosses the given number of exec.step boundaries, runs the given number
// of sharded kernel tasks, and does or does not draw a relation from the
// pool — to build in, or, adopted, to copy a whole-query hit into, which
// runs no kernel at all.
func contractCases(boundaries, shards int, draws, adopted bool) []abortCase {
	cases := []abortCase{
		{name: "pre-cancelled",
			arm:  func(_ *Options, c *Canceller) func() { c.Cancel(nil); return func() {} },
			want: func(err error) bool { return errors.Is(err, ErrCancelled) }},
		{name: "cancel-mid-base",
			// The canceller fires as the pool hands out the execution's
			// first relation: after Run's entry check and before the base's
			// first row, so it is the kernel filling the base that has to
			// notice — no step boundary may follow to catch it. A shape that
			// draws none (a counted base) has nowhere for this to land.
			arm: func(opt *Options, c *Canceller) func() {
				mk := opt.Pool.free.New
				opt.Pool.free.New = func() *bitset.HybridRelation { c.Cancel(nil); return mk() }
				return func() {}
			},
			want:     func(err error) bool { return errors.Is(err, ErrCancelled) },
			survives: !draws || adopted},
		{name: "deadline",
			// An injected delay at every step boundary makes a short
			// context deadline expire mid-query.
			arm:      armDeadline("exec.step", 0),
			want:     func(err error) bool { return errors.Is(err, ErrDeadlineExceeded) },
			survives: boundaries == 0},
		{name: "budget",
			arm:  func(opt *Options, _ *Canceller) func() { opt.MaxResultBytes = 64; return func() {} },
			want: func(err error) bool { return errors.Is(err, ErrBudgetExceeded) }},
		{name: "shard-panic",
			// A worker-side panic inside a sharded kernel task; the
			// scheduler contains it as a typed *sched.PanicError.
			arm:      armFault(faultinject.Rule{Site: "exec.shard", Skip: 1, Count: 1, Action: faultinject.ActPanic}),
			want:     isPanicError,
			survives: shards < 2},
		{name: "deadline-mid-shard",
			// One shard of the first sharded step sleeps past the deadline
			// and then runs its kernel with the flag already up: it is the
			// row loop's own poll that has to stop it.
			arm:      armDeadline("exec.shard", 1),
			want:     func(err error) bool { return errors.Is(err, ErrDeadlineExceeded) },
			survives: shards == 0},
	}
	// A caller-goroutine panic at each step boundary in turn: leaf
	// steps, join-node boundaries (both children built and live), power
	// and fold steps.
	for i := 0; i < boundaries; i++ {
		cases = append(cases, abortCase{
			name: fmt.Sprintf("step-panic@%d", i),
			arm:  armFault(faultinject.Rule{Site: "exec.step", Skip: i, Count: 1, Action: faultinject.ActPanic}),
			want: isPanicError})
	}
	return cases
}

// TestContractEveryPlanShape pins the one execution contract on every
// plan shape: {zig-zag, bushy, DAG, first step rightward and leftward,
// through an alternation and an optional label, the fused identity terms
// of fusedShapes, wildcard} × {no cache, a cold one, one the plan already
// ran over — a whole-query hit} × {result kept, result counted} ×
// {pre-cancelled, cancelled mid-base, deadline at a step boundary and
// inside a shard, budget, shard panic, step panic at each boundary} ×
// workers {1, 4}. An aborted execution returns its typed error and a nil
// relation, with every pooled relation released and every goroutine gone;
// a survivor that keeps its result is bit-identical to the dense reference
// or the expansion-union oracle and holds exactly that relation, and one
// that does not returns none, holds nothing, and crossed the same step
// boundaries to the same answer.
func TestContractEveryPlanShape(t *testing.T) {
	g := randomGraph(7, 400, 2, 6000) // dense enough that steps shard
	shapes := append(append(contractShapes(t, g), operandShapes(t, g)...), fusedShapes(t, g)...)
	for _, sh := range append(shapes, wildcardShape(t, g)) {
		// cacheIn returns a fresh cache in the given state, for one run.
		cacheIn := func(state string) *relcache.Cache {
			if state == "none" {
				return nil
			}
			cache := relcache.New(relcache.Options{})
			if state == "warm" {
				if _, _, err := Run(g, sh.plan, Options{Cache: cache}); err != nil {
					t.Fatalf("%s: warming the cache: %v", sh.name, err)
				}
			}
			return cache
		}
		for _, state := range []string{"none", "cold", "warm"} {
			for _, workers := range []int{1, 4} {
				var kept Stats
				boundaries, shards := 0, 0
				for _, keep := range []bool{true, false} {
					// A survival run under a never-triggering rule counts the
					// shape's step boundaries and checks the survivor.
					inj := faultinject.NewInjector(faultinject.Rule{Site: "exec.step", Skip: 1 << 30})
					opt, pool, _ := checkedOptions(g.NumVertices(), workers)
					opt.KeepResult, opt.Cache = keep, cacheIn(state)
					draws, mk := false, pool.free.New
					pool.free.New = func() *bitset.HybridRelation { draws = true; return mk() }
					faultinject.Install(inj)
					rel, st, err := Run(g, sh.plan, opt)
					faultinject.Uninstall()
					if keep {
						if err != nil || !sh.oracle(rel) || pool.InUse() != 1 {
							t.Fatalf("%s cache=%s workers=%d: survivor err=%v, %d relations in use, want the oracle's relation and 1",
								sh.name, state, workers, err, pool.InUse())
						}
						kept, boundaries, shards = st, inj.Visits("exec.step"), inj.Visits("exec.shard")
					} else if err != nil || rel != nil || pool.InUse() != 0 ||
						st.Result != kept.Result || inj.Visits("exec.step") != boundaries {
						t.Fatalf("%s cache=%s workers=%d: counted survivor err=%v relation=%t result=%d over %d steps with %d relations in use, want no relation, %d over %d steps and 0",
							sh.name, state, workers, err, rel != nil, st.Result, inj.Visits("exec.step"), pool.InUse(), kept.Result, boundaries)
					}
					adopted := state == "warm" && st.CacheHits == 1 && len(st.Intermediates) == 0
					if state == "warm" && !adopted && sh.name != "first-right" && sh.name != "first-left" {
						// (A length-2 leaf aside, whose whole-query hit is also
						// its one step's.)
						t.Fatalf("%s workers=%d keep=%t: the plan's repeat reports %+v, want a whole-query hit", sh.name, workers, keep, st)
					}
					shape := sh.name
					if state != "none" {
						shape += "/cache=" + state
					}
					for _, ac := range contractCases(boundaries, shards, draws, adopted) {
						t.Run(fmt.Sprintf("%s/keep=%t/%s/workers=%d", shape, keep, ac.name, workers), func(t *testing.T) {
							base := runtime.NumGoroutine()
							opt, pool, c := checkedOptions(g.NumVertices(), workers)
							opt.KeepResult, opt.Cache = keep, cacheIn(state)
							cleanup := ac.arm(&opt, c)
							rel, _, err := Run(g, sh.plan, opt)
							cleanup()
							switch {
							case err == nil && ac.survives:
								if keep && !sh.oracle(rel) {
									t.Fatal("survivor differs from the oracle")
								}
								pool.Put(rel)
							case rel != nil || !ac.want(err):
								t.Fatalf("got relation=%t err=%v, want no relation and the case's typed error", rel != nil, err)
							}
							if n := pool.InUse(); n != 0 {
								t.Fatalf("%d pooled relations leaked (err=%v)", n, err)
							}
							waitForGoroutines(t, base)
						})
					}
				}
			}
		}
	}
}

// TestContractBudgetSingleLabel pins that Options.MaxResultBytes bounds
// every relation an execution hands out, including the single-label
// base no join step ever produced: a length-1 query over budget is
// killed on every plan shape.
func TestContractBudgetSingleLabel(t *testing.T) {
	g := randomGraph(7, 400, 2, 6000)
	p := paths.Path{0}
	for name, plan := range map[string]*DagPlan{
		"zigzag": startPlan(p, 0),
		"bushy":  PathPlan(p, &PlanTree{Lo: 0, Hi: 1}),
		"dag":    zeroPlan(g, PathDag(p)),
	} {
		opt, pool, _ := checkedOptions(g.NumVertices(), 1) // a fresh canceller per case
		opt.MaxResultBytes = 1
		rel, _, err := Run(g, plan, opt)
		if rel != nil || !errors.Is(err, ErrBudgetExceeded) {
			t.Errorf("%s: got relation=%t err=%v, want no relation and ErrBudgetExceeded", name, rel != nil, err)
		}
		if n := pool.InUse(); n != 0 {
			t.Errorf("%s: %d pooled relations leaked", name, n)
		}
	}
}
