package exec

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/paths"
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
