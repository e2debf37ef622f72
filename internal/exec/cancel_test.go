package exec

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/paths"
	"repro/internal/relcache"
)

// checkedOptions returns options wiring a fresh pool and canceller for an
// n-vertex graph, keeping the result relation for the caller to compare
// and release.
func checkedOptions(n, workers int) (Options, *RelPool, *Canceller) {
	pool := NewRelPool(n, 0)
	c := &Canceller{}
	return Options{Workers: workers, Pool: pool, Cancel: c, KeepResult: true}, pool, c
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (small slack for runtime helpers) or the deadline passes.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count %d did not return to baseline %d", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCancelLeakHygiene is the abort-hygiene stress: 100 executions per
// worker count, alternating pre-cancelled, panic-injected, and
// timer-cancelled aborts, after which the goroutine count and the pool
// occupancy must be back at baseline. Run under -race in CI.
func TestCancelLeakHygiene(t *testing.T) {
	g := randomGraph(17, 300, 2, 4000)
	p := paths.Path{0, 1, 0, 1}
	base := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 4, 8} {
		pool := NewRelPool(g.NumVertices(), 0)
		for i := 0; i < 100; i++ {
			c := &Canceller{}
			opt := Options{Workers: workers, Pool: pool, Cancel: c}
			switch i % 3 {
			case 0:
				c.Cancel(nil)
			case 1:
				if workers > 1 {
					faultinject.Install(faultinject.NewInjector(faultinject.Rule{
						Site: "exec.shard", Skip: i % 5, Count: 1, Action: faultinject.ActPanic,
					}))
				}
			case 2:
				timer := time.AfterFunc(time.Duration(i%4)*100*time.Microsecond,
					func() { c.Cancel(ErrDeadlineExceeded) })
				defer timer.Stop()
			}
			rel, _, err := Run(g, startPlan(p, i%len(p)), opt)
			faultinject.Uninstall()
			if err == nil {
				pool.Put(rel) // survived (e.g. timer fired too late): release
			} else if rel != nil {
				t.Fatalf("workers=%d iter=%d: non-nil relation alongside error %v", workers, i, err)
			}
		}
		if pool.InUse() != 0 {
			t.Fatalf("workers=%d: %d relations still checked out after 100 aborts", workers, pool.InUse())
		}
	}
	waitForGoroutines(t, base)
}

// TestPoolLeaksNoRowsAcrossCheckouts pins the pool's invariant: a relation
// at rest in a RelPool is empty, because Put empties it. It checks the
// relations that come back after a kept result its caller releases, after
// an execution a panic aborted mid-step, and while two goroutines execute
// bushy plans over one pool, each releasing its relations while the other
// checks its own out (run under -race in CI). Every relation Get then hands out has no pair and
// no source, and an eps step over it, which reads rows by vertex whether
// they are listed or not, counts the operand's pairs and nothing else.
func TestPoolLeaksNoRowsAcrossCheckouts(t *testing.T) {
	g := randomGraph(7, 400, 2, 12000)
	n := g.NumVertices()
	ops := []bitset.CSROperand{g.LabelOperand(0)}
	limit := bitset.SparseLimit(n, 0)
	// empty checks one checked-out relation, probing it on scr.
	empty := func(rel *bitset.HybridRelation, scr *bitset.ComposeScratch) error {
		if rel.Pairs() != 0 || rel.Rows().Len() != 0 {
			return fmt.Errorf("checked out holding %d pairs over %d sources", rel.Pairs(), rel.Rows().Len())
		}
		_, c := rel.Extend(true, false).ComposeShard(nil, ops, scr, limit, 0, n, nil)
		if want := int64(len(ops[0].Targets)); c.Pairs != want {
			return fmt.Errorf("an eps step over a checked-out relation counts %d pairs, want %d: stale rows survived", c.Pairs, want)
		}
		return nil
	}
	// drain checks out more relations than any execution here holds at
	// once, checks each, and releases them; released, when given, must be
	// among them.
	drain := func(t *testing.T, pool *RelPool, released *bitset.HybridRelation) {
		t.Helper()
		scr := bitset.NewComposeScratch(n)
		rels := make([]*bitset.HybridRelation, 8)
		seen := released == nil
		for i := range rels {
			rels[i] = pool.Get()
			seen = seen || rels[i] == released
			if err := empty(rels[i], scr); err != nil {
				t.Fatal(err)
			}
		}
		if !seen {
			t.Fatal("the released relation never came back from the pool")
		}
		for _, rel := range rels {
			pool.Put(rel)
		}
	}
	t.Run("kept", func(t *testing.T) {
		pool := NewRelPool(n, 0)
		rel, _, err := Run(g, startPlan(paths.Path{1, 0, 1}, 1), Options{Workers: 4, Pool: pool, KeepResult: true})
		if err != nil || rel.Pairs() == 0 {
			t.Fatalf("kept run: err %v, want a non-empty result", err)
		}
		pool.Put(rel)
		drain(t, pool, rel)
	})
	t.Run("aborted", func(t *testing.T) {
		pool := NewRelPool(n, 0)
		faultinject.Install(faultinject.NewInjector(
			faultinject.Rule{Site: "exec.shard", Skip: 1, Count: 1, Action: faultinject.ActPanic}))
		_, _, err := Run(g, startPlan(paths.Path{1, 0}, 0), Options{Workers: 4, Pool: pool})
		faultinject.Uninstall()
		if err == nil || pool.InUse() != 0 {
			t.Fatalf("err %v, %d relations in use; want a contained panic and none", err, pool.InUse())
		}
		drain(t, pool, nil)
	})
	t.Run("concurrent", func(t *testing.T) {
		pool := NewRelPool(n, 0)
		p := paths.Path{1, 0, 1, 0}
		plan := PathPlan(p, &PlanTree{Lo: 0, Hi: 4, Start: -1,
			Left: &PlanTree{Lo: 0, Hi: 2, Start: 0}, Right: &PlanTree{Lo: 2, Hi: 4, Start: 3}})
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scr := bitset.NewComposeScratch(n)
				for i := 0; i < 40; i++ {
					rel := pool.Get()
					if err := empty(rel, scr); err != nil {
						t.Error(err)
						return
					}
					res, _, err := Run(g, plan, Options{Workers: 2, Pool: pool, KeepResult: true})
					if err != nil {
						t.Error(err)
						return
					}
					rel.FillFromCSR(g.LabelOperand(i % 2))
					pool.Put(rel)
					pool.Put(res)
				}
			}()
		}
		wg.Wait()
		if pool.InUse() != 0 {
			t.Fatalf("%d relations still checked out", pool.InUse())
		}
		drain(t, pool, nil)
	})
}

// FuzzCancelEquivalence pins two properties across fuzzed graphs and
// queries: wiring a canceller and pool that never fire is bit-identical
// to running without them, and cancelling after completion affects
// nothing (the relation already returned is untouched).
func FuzzCancelEquivalence(f *testing.F) {
	f.Add(int64(1), 80, 2, 400, uint16(0x0012), uint8(2))
	f.Add(int64(9), 150, 3, 1200, uint16(0x0321), uint8(5))
	f.Add(int64(4), 40, 1, 100, uint16(0x0000), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, vertices, labels, edges int, pathBits uint16, workers uint8) {
		if vertices < 1 || vertices > 250 || labels < 1 || labels > 4 || edges < 0 || edges > 2000 {
			t.Skip()
		}
		g := randomGraph(seed, vertices, labels, edges)
		k := 1 + int(pathBits>>12)%4
		p := make(paths.Path, k)
		for i := range p {
			p[i] = int(pathBits>>(4*i)) % labels
		}
		w := int(workers%8) + 1
		start := rand.New(rand.NewSource(seed)).Intn(k)
		ref, refSt := runPlan(t, g, p, start, Options{Workers: w})
		opt, pool, c := checkedOptions(g.NumVertices(), w)
		rel, st, err := Run(g, startPlan(p, start), opt)
		if err != nil {
			t.Fatalf("checked execution failed: %v", err)
		}
		if !rel.Equal(ref) || st.Result != refSt.Result || st.Work != refSt.Work {
			t.Fatalf("path %v start %d workers %d: canceller and pool changed the result", p, start, w)
		}
		// Cancel after completion: the returned relation must be unaffected.
		c.Cancel(nil)
		if !rel.Equal(ref) {
			t.Fatalf("path %v: post-completion cancel mutated the result", p)
		}
		pool.Put(rel)
		if pool.InUse() != 0 {
			t.Fatalf("pool still reports %d in use", pool.InUse())
		}
	})
}

// TestPoolHoldsNoIdleRelation pins how many pooled relations an execution
// holds at once, read at every exec.step boundary, where the step's
// destination is already taken and its inputs are still live: no node
// takes a relation before a step writes it, and none keeps one a step has
// read. A zig-zag leaf holds two from any start, cached or not — the
// segment so far and the next one; a fold holds two at its block-boundary
// step — the prefix, and the step's destination — having held nothing
// through a prefix scan that missed, whether its first block is a run or
// an unrolled element; a bushy join node holds three, its two children
// and the join.
func TestPoolHoldsNoIdleRelation(t *testing.T) {
	g := randomGraph(11, 200, 4, 3000)
	const a, b, c, d = 0, 1, 2, 3
	label := func(l int) RPQElem { return RPQElem{Labels: []int{l}, MinRep: 1, MaxRep: 1} }
	alt := RPQElem{Labels: []int{c, d}, MinRep: 1, MaxRep: 1}
	p := paths.Path{a, b, c, d}
	type planCase struct {
		name   string
		plan   *DagPlan
		cached bool
		peak   int
	}
	var cases []planCase
	for s := range p {
		for _, cached := range []bool{false, true} {
			cases = append(cases, planCase{fmt.Sprintf("zigzag@%d cached=%t", s, cached), startPlan(p, s), cached, 2})
		}
	}
	cases = append(cases,
		planCase{"a/b/c/(c|d)", zeroPlan(g, &RPQDag{Elems: []RPQElem{label(a), label(b), label(c), alt}}), true, 2},
		planCase{"a{3}/(c|d)", zeroPlan(g, &RPQDag{Elems: []RPQElem{{Labels: []int{a}, MinRep: 3, MaxRep: 3}, alt}}), true, 2},
		planCase{"(ab ⋈ cd)", PathPlan(p, &PlanTree{Lo: 0, Hi: 4, Start: -1,
			Left: &PlanTree{Lo: 0, Hi: 2, Start: 0}, Right: &PlanTree{Lo: 2, Hi: 4, Start: 2}}), true, 3},
	)
	for _, tc := range cases {
		pool := NewRelPool(g.NumVertices(), 0)
		opt := Options{Pool: pool, Workers: 2}
		if tc.cached {
			opt.Cache = relcache.New(relcache.Options{})
		}
		steps, peak := 0, 0
		faultinject.Install(faultinject.NewInjector(faultinject.Rule{
			Site: "exec.step", Action: faultinject.ActDelay,
			Wait: func() { steps, peak = steps+1, max(peak, pool.InUse()) }}))
		_, _, err := Run(g, tc.plan, opt)
		faultinject.Uninstall()
		if err != nil || steps == 0 || pool.InUse() != 0 {
			t.Fatalf("%s: err %v after %d steps, %d relations still checked out", tc.name, err, steps, pool.InUse())
		}
		if peak > tc.peak {
			t.Errorf("%s: %d pooled relations live at a step, want at most %d", tc.name, peak, tc.peak)
		}
	}
}
