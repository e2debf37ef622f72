package exec

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/relcache"
)

// countShapes returns the plan shapes the counted root must agree with the
// materializing one on: every zig-zag start of a length-4 path (the counted
// last step is rightward for start 0, leftward otherwise), a bushy root join,
// a DAG whose last fold join is counted, a DAG whose last element is
// optional, so its last step carries the skip term, and the same at length 2
// (skip-root, `a/b?`), whose result contains every relation before it.
func countShapes(g *graph.CSR) []planShape {
	// The two halves spell different label sequences, so that over a cold
	// cache the bushy shape's right child does not adopt what the left one
	// published: its root joins two halves both built fresh.
	p := paths.Path{0, 1, 1, 0}
	tree := &PlanTree{Lo: 0, Hi: 4, Start: -1,
		Left:  &PlanTree{Lo: 0, Hi: 2, Start: 0},
		Right: &PlanTree{Lo: 2, Hi: 4, Start: 3},
	}
	label := func(l int) RPQElem { return RPQElem{Labels: []int{l}, MinRep: 1, MaxRep: 1} }
	counted := &RPQDag{Elems: []RPQElem{label(0), label(1), {Labels: []int{0, 1}, MinRep: 1, MaxRep: 2}}}
	skipLast := &RPQDag{Elems: []RPQElem{label(1), label(0), {Labels: []int{1}, MinRep: 0, MaxRep: 1}}}
	skipRoot := &RPQDag{Elems: []RPQElem{label(0), {Labels: []int{1}, MinRep: 0, MaxRep: 1}}}
	var shapes []planShape
	for start := range p {
		shapes = append(shapes, planShape{name: fmt.Sprintf("zigzag@%d", start), plan: startPlan(p, start)})
	}
	shapes = append(shapes, planShape{name: "bushy", plan: PathPlan(p, tree)})
	for name, d := range map[string]*RPQDag{"dag-counted": counted, "dag-skip-last": skipLast, "skip-root": skipRoot} {
		shapes = append(shapes, planShape{name: name, plan: zeroPlan(g, d)})
	}
	return shapes
}

// answer is the part of Stats that describes what was computed, which
// counting the root must not change (Sched differs by design: a counted
// step runs no merge round).
type answer struct {
	Result, Work  int64
	Intermediates []int64
	Hits, Misses  int
}

func answerOf(st Stats) answer {
	return answer{st.Result, st.Work, st.Intermediates, st.CacheHits, st.CacheMisses}
}

// TestKeepResultChangesNothingButTheRelation pins the counted root
// against the materializing one: for every plan shape × workers 1–8 ×
// cache off / cold / warm, KeepResult true and false report identical
// Result, Intermediates, Work and cache traffic; the counted run returns
// no relation, leaves nothing checked out of the pool, and — uncached,
// where nothing would publish the result — really did count it.
func TestKeepResultChangesNothingButTheRelation(t *testing.T) {
	g := randomGraph(7, 400, 2, 6000) // dense enough that steps shard
	for _, sh := range countShapes(g) {
		for workers := 1; workers <= 8; workers++ {
			// One cache per side, so both see the same cold-then-warm history.
			caches := map[bool]*relcache.Cache{true: relcache.New(relcache.Options{}), false: relcache.New(relcache.Options{})}
			for _, state := range []string{"off", "cold", "warm"} {
				var got [2]answer
				for i, keep := range []bool{true, false} {
					opt, pool, _ := checkedOptions(g.NumVertices(), workers)
					opt.KeepResult = keep
					if state != "off" {
						opt.Cache = caches[keep]
					}
					rel, st, err := Run(g, sh.plan, opt)
					if err != nil {
						t.Fatalf("%s workers=%d cache=%s keep=%t: %v", sh.name, workers, state, keep, err)
					}
					if keep {
						if rel == nil || rel.Pairs() != st.Result {
							t.Fatalf("%s workers=%d cache=%s: kept relation missing or not the result", sh.name, workers, state)
						}
						pool.Put(rel)
					} else if rel != nil {
						t.Fatalf("%s workers=%d cache=%s: counted run returned a relation", sh.name, workers, state)
					} else if state == "off" {
						// No relation comes back either way, so ask the root
						// itself: a plan whose last step nothing publishes — a
						// single run and a skippable last block included — must
						// count it, not build it for finish to release.
						x := newCore(g, opt)
						if root, err := x.node(sh.plan.Elems, sh.plan.Tree, true); err != nil || root != nil || x.counted.Pairs != st.Result {
							t.Fatalf("%s workers=%d: root built its result (relation=%t counted=%d err=%v), want it counted as %d",
								sh.name, workers, root != nil, x.counted.Pairs, err, st.Result)
						}
					}
					if n := pool.InUse(); n != 0 {
						t.Fatalf("%s workers=%d cache=%s keep=%t: %d relations still checked out", sh.name, workers, state, keep, n)
					}
					got[i] = answerOf(st)
				}
				if !reflect.DeepEqual(got[0], got[1]) {
					t.Fatalf("%s workers=%d cache=%s: kept %+v, counted %+v", sh.name, workers, state, got[0], got[1])
				}
			}
		}
	}
}

// TestBudgetBoundaryIsTheSameCounted pins how a counted result is priced:
// the smallest MaxResultBytes an execution survives is the same whether
// the root builds its result or counts it — for the zig-zag, bushy and
// skip-root shapes, whose result is their largest relation, exactly the
// result's clone size, one byte less killing both.
func TestBudgetBoundaryIsTheSameCounted(t *testing.T) {
	g := randomGraph(7, 400, 2, 6000)
	for _, sh := range countShapes(g) {
		// survives reports whether the shape runs to completion under the
		// budget; executions are deterministic, so it is monotone in it.
		survives := func(keep bool, budget int64) bool {
			opt, pool, _ := checkedOptions(g.NumVertices(), 2)
			opt.KeepResult, opt.MaxResultBytes = keep, budget
			rel, _, err := Run(g, sh.plan, opt)
			if err != nil && !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("%s keep=%t budget=%d: %v", sh.name, keep, budget, err)
			}
			pool.Put(rel)
			if n := pool.InUse(); n != 0 {
				t.Fatalf("%s keep=%t budget=%d: %d relations still checked out", sh.name, keep, budget, n)
			}
			return err == nil
		}
		boundary := func(keep bool) int64 {
			lo, hi := int64(1), int64(1)<<30 // lo dies, hi survives
			for lo+1 < hi {
				if mid := (lo + hi) / 2; survives(keep, mid) {
					hi = mid
				} else {
					lo = mid
				}
			}
			return hi
		}
		kept, counted := boundary(true), boundary(false)
		if kept != counted {
			t.Fatalf("%s: budget boundary %d B building the result, %d B counting it", sh.name, kept, counted)
		}
		opt, _, _ := checkedOptions(g.NumVertices(), 2)
		rel, _, err := Run(g, sh.plan, opt)
		if err != nil {
			t.Fatal(err)
		}
		if size := int64(rel.CloneMemSize()); size > kept || (!strings.HasPrefix(sh.name, "dag") && size != kept) {
			t.Fatalf("%s: result of %d B against a boundary of %d B", sh.name, size, kept)
		}
	}
}

// TestCancellerContextStartsNoGoroutine pins the context bridge: 10 000
// executions under a live cancellable context never raise the goroutine
// count — the bridge is a registration on the context, not a watcher per
// query.
func TestCancellerContextStartsNoGoroutine(t *testing.T) {
	g := testGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pool := NewRelPool(g.NumVertices(), 0)
	base := runtime.NumGoroutine()
	for i := 0; i < 10000; i++ {
		canc, release := NewCancellerContext(ctx)
		_, _, err := Run(g, startPlan(paths.Path{0, 1}, 0), Options{Workers: 1, Pool: pool, Cancel: canc})
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("execution %d: %d goroutines with the bridge live, %d before any", i, n, base)
		}
		release()
		if err != nil {
			t.Fatal(err)
		}
	}
	// The bridge still works: cancelling the context cancels a canceller
	// bridged to it, with the typed cause.
	canc, release := NewCancellerContext(ctx)
	defer release()
	cancel()
	for deadline := time.Now().Add(2 * time.Second); !errors.Is(canc.Err(), ErrCancelled); {
		if time.Now().After(deadline) {
			t.Fatalf("canceller reports %v after its context was cancelled", canc.Err())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancellerContextDeadAtBridge pins that a context already done when
// it is bridged cancels the canceller before NewCancellerContext returns,
// with the cause that matches it: an AfterFunc alone would set it later,
// from its own goroutine, leaving the execution free to start.
func TestCancellerContextDeadAtBridge(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancelExpired()
	for _, c := range []struct {
		ctx  context.Context
		want error
	}{{cancelled, ErrCancelled}, {expired, ErrDeadlineExceeded}} {
		for i := 0; i < 100; i++ {
			canc, release := NewCancellerContext(c.ctx)
			err := canc.Err()
			release()
			if !errors.Is(err, c.want) {
				t.Fatalf("call %d: canceller reports %v on return, want %v", i, err, c.want)
			}
		}
	}
}
