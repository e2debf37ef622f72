package sched

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// TestSchedulerRunsEveryTask seeds tasks round-robin and verifies each
// executes exactly once, across worker counts (including more workers than
// tasks, so some park immediately and must still terminate).
func TestSchedulerRunsEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 32} {
		const n = 100
		var ran [n]atomic.Int32
		s := New(workers, func(_ int, task int) { ran[task].Add(1) })
		for i := 0; i < n; i++ {
			s.Spawn(i, i)
		}
		s.Drain()
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestSchedulerRecursiveSpawn builds a task tree entirely from inside task
// bodies — the census's dynamic-split pattern — and verifies every node
// runs exactly once.
func TestSchedulerRecursiveSpawn(t *testing.T) {
	const depth, fanout = 6, 3
	total := 0
	for d, width := 0, 1; d <= depth; d, width = d+1, width*fanout {
		total += width
	}
	var ran atomic.Int64
	type node struct{ depth int }
	var s *Scheduler[node]
	s = New(4, func(w int, nd node) {
		ran.Add(1)
		if nd.depth < depth {
			for c := 0; c < fanout; c++ {
				s.Spawn(w, node{depth: nd.depth + 1})
			}
		}
	})
	s.Spawn(0, node{})
	s.Drain()
	if got := ran.Load(); got != int64(total) {
		t.Fatalf("ran %d tasks, want %d", got, total)
	}
}

// TestSchedulerCrossWorkerSpawn exercises the park/wake path with Spawns
// targeted at other workers' deques: a long chain where each task spawns
// its successor onto the next worker keeps at most one task live, so most
// workers sit parked and every handoff must wake someone. A lost wakeup
// (e.g. a parked worker whose own deque received the task and whose
// re-scan skipped it) shows up as a test-binary timeout.
func TestSchedulerCrossWorkerSpawn(t *testing.T) {
	const links = 500
	var ran atomic.Int64
	var s *Scheduler[int]
	s = New(4, func(w int, remaining int) {
		ran.Add(1)
		if remaining > 0 {
			s.Spawn(w+1, remaining-1) // deliberately another worker's deque
		}
	})
	s.Spawn(0, links)
	s.Drain()
	if got := ran.Load(); got != links+1 {
		t.Fatalf("ran %d chain links, want %d", got, links+1)
	}
}

// TestSchedulerDrainStatic pins a static round's contract — every task
// seeded before Drain, no body spawning, the executor's shard round: the
// drain completes every task both when outstanding < workers (only that
// many goroutines start, the rest of the deques reached by stealing) and
// when outstanding > workers.
func TestSchedulerDrainStatic(t *testing.T) {
	for _, n := range []int{1, 3, 40} {
		var ran atomic.Int64
		s := New(8, func(_ int, _ int) { ran.Add(1) })
		for i := 0; i < n; i++ {
			s.Spawn(i, i)
		}
		if err := s.Drain(); err != nil {
			t.Fatalf("n=%d: Drain = %v", n, err)
		}
		if got := ran.Load(); got != int64(n) || s.Counters().Tasks != int64(n) {
			t.Fatalf("n=%d: ran %d tasks, counted %d", n, got, s.Counters().Tasks)
		}
	}
}

// TestSchedulerIdleStartsNoWorker pins the other half of lazy start: no
// worker runs outside a drain. A drain with nothing outstanding returns
// at once and counts nothing, a seeding Spawn starts no goroutine and
// runs nothing, and after a round the started count is back at zero, so
// the next round's seeds start none either.
func TestSchedulerIdleStartsNoWorker(t *testing.T) {
	var ran atomic.Int64
	s := New(4, func(_ int, _ int) { ran.Add(1) })
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if s.started.Load() != 0 || s.Counters() != (Counters{}) {
		t.Fatalf("an empty drain left %d started and counted %+v", s.started.Load(), s.Counters())
	}
	for round := int64(0); round < 3; round++ {
		for i := 0; i < 6; i++ {
			s.Spawn(i, i)
			if n := s.started.Load(); n != 0 {
				t.Fatalf("round %d: a seeding Spawn started %d workers", round, n)
			}
		}
		if got := ran.Load(); got != 6*round {
			t.Fatalf("round %d: %d tasks ran before the drain, want %d", round, got, 6*round)
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if got := ran.Load(); got != 6*(round+1) || s.started.Load() != 0 {
			t.Fatalf("round %d: ran %d tasks, %d workers still counted", round, got, s.started.Load())
		}
	}
}

// TestSchedulerDrainReuse runs several seed/drain rounds on one scheduler
// — the parallel executor's per-join-step barrier pattern.
func TestSchedulerDrainReuse(t *testing.T) {
	var sum atomic.Int64
	s := New(3, func(_ int, v int64) { sum.Add(v) })
	want := int64(0)
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			v := int64(round*100 + i)
			want += v
			s.Spawn(i, v)
		}
		s.Drain()
	}
	if got := sum.Load(); got != want {
		t.Fatalf("sum %d after 5 rounds, want %d", got, want)
	}
	s.Drain() // nothing outstanding: must return immediately
}

// TestWorkerCount pins the ≤0 → GOMAXPROCS normalization.
func TestWorkerCount(t *testing.T) {
	if got := WorkerCount(5); got != 5 {
		t.Fatalf("WorkerCount(5) = %d", got)
	}
	if got := WorkerCount(0); got < 1 {
		t.Fatalf("WorkerCount(0) = %d, want ≥ 1", got)
	}
	if got := WorkerCount(-3); got != WorkerCount(0) {
		t.Fatalf("WorkerCount(-3) = %d != WorkerCount(0) = %d", got, WorkerCount(0))
	}
}

// TestWorkerCountTracksGOMAXPROCS pins the call-time re-read: a process
// that adjusts GOMAXPROCS after start (container managers and tests do)
// must see the current value, not a boot-time snapshot.
func TestWorkerCountTracksGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)
	runtime.GOMAXPROCS(3)
	if got := WorkerCount(0); got != 3 {
		t.Fatalf("WorkerCount(0) = %d after GOMAXPROCS(3)", got)
	}
	runtime.GOMAXPROCS(5)
	if got := WorkerCount(-1); got != 5 {
		t.Fatalf("WorkerCount(-1) = %d after GOMAXPROCS(5)", got)
	}
}

// TestSchedulerCounters verifies the observability counters: under
// deliberately unbalanced spawning the task total matches the spawn count
// and steals never exceed it, and the counts accumulate across rounds.
func TestSchedulerCounters(t *testing.T) {
	var ran atomic.Int64
	s := New[int](4, func(worker, task int) { ran.Add(1) })
	const tasks = 400
	for i := 0; i < tasks; i++ {
		s.Spawn(0, i) // all on worker 0: the others must steal to help
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.Tasks != tasks || ran.Load() != tasks {
		t.Fatalf("counted %d tasks (ran %d), want %d", c.Tasks, ran.Load(), tasks)
	}
	if c.Steals > c.Tasks {
		t.Fatalf("%d steals of %d tasks", c.Steals, c.Tasks)
	}
	// Counters accumulate across rounds on a reused scheduler.
	s.Spawn(1, 1)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := s.Counters().Tasks; got != tasks+1 {
		t.Fatalf("counters reset between rounds: %d", got)
	}
}

// TestSchedulerStartsWorkersOnDemand pins the lazy-start rule through the
// drain's own count of the goroutines it started: a round of m < workers
// tasks whose bodies never spawn starts exactly m, whichever deques they
// were seeded on, and a single seed whose body fans out onto 4 workers
// starts more than one — a Spawn that finds no worker parked starts the
// next, up to the worker count.
func TestSchedulerStartsWorkersOnDemand(t *testing.T) {
	for _, m := range []int{1, 3, 7} {
		var s *Scheduler[int]
		var seen atomic.Int64
		s = New(8, func(_ int, _ int) { seen.Store(s.started.Load()) })
		for i := 0; i < m; i++ {
			s.Spawn(7-i, i) // high deques: reached by stealing
		}
		if err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		if got := seen.Load(); got != int64(m) {
			t.Fatalf("%d static tasks on 8 workers started %d goroutines, want %d", m, got, m)
		}
		if s.Counters().Tasks != int64(m) || s.started.Load() != 0 {
			t.Fatalf("m=%d: ran %d tasks, %d workers still counted after the drain",
				m, s.Counters().Tasks, s.started.Load())
		}
	}

	var s *Scheduler[int]
	var after atomic.Int64
	s = New(4, func(w, depth int) {
		if depth == 0 {
			for c := 0; c < 8; c++ {
				s.Spawn(w, 1)
			}
			// No other worker existed when the first child was spawned,
			// so none was parked: that Spawn started the second.
			after.Store(s.started.Load())
		}
	})
	s.Spawn(0, 0)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := after.Load(); got < 2 || got > 4 {
		t.Fatalf("a fanning-out seed on 4 workers left %d started, want 2..4", got)
	}
	if s.Counters().Tasks != 9 {
		t.Fatalf("ran %d tasks, want 9", s.Counters().Tasks)
	}
}

// TestPool verifies the free-list round trip and that Get falls back to
// New when empty.
func TestPool(t *testing.T) {
	made := 0
	p := Pool[*int]{New: func() *int { made++; v := new(int); return v }}
	a := p.Get()
	b := p.Get()
	if made != 2 {
		t.Fatalf("made %d objects, want 2", made)
	}
	p.Put(a)
	p.Put(b)
	if c := p.Get(); c != b {
		t.Fatal("Get did not return the most recently Put object")
	}
	if d := p.Get(); d != a {
		t.Fatal("Get did not drain the free list LIFO")
	}
	if made != 2 {
		t.Fatalf("made %d objects after reuse, want 2", made)
	}
}

// splitmix64 is a deterministic hash for the determinism harness.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// determinismRun executes a seed-derived task tree at the given worker
// count: each task owns slot idx of the result slice and spawns a
// pseudorandom (but seed-deterministic) number of children with
// pre-assigned slots. The returned slice must be identical at every worker
// count and under every steal interleaving, because each slot is written
// by exactly one task.
func determinismRun(seed uint64, workers, tasks int) []uint64 {
	out := make([]uint64, tasks)
	next := atomic.Int64{}
	type job struct{ idx int }
	var s *Scheduler[job]
	s = New(workers, func(w int, j job) {
		out[j.idx] = splitmix64(seed ^ uint64(j.idx))
		children := int(out[j.idx] % 4)
		for c := 0; c < children; c++ {
			idx := int(next.Add(1)) - 1
			if idx >= tasks {
				return
			}
			s.Spawn(w, job{idx: idx})
		}
	})
	// Seed the roots: the first min(4, tasks) slots.
	roots := 4
	if tasks < roots {
		roots = tasks
	}
	next.Store(int64(roots))
	for i := 0; i < roots; i++ {
		s.Spawn(i, job{idx: i})
	}
	s.Drain()
	// The set of executed slots is the least fixed point of the claim
	// process (child counts depend only on the slot index), so it is the
	// same at every worker count; unclaimed tail slots stay zero
	// everywhere. Each executed slot's value depends only on (seed, idx).
	return out
}

// FuzzSchedulerDeterminism pins the scheduler's determinism contract: a
// task graph whose bodies write only task-owned slots produces
// bit-identical output at every worker count, regardless of how stealing
// interleaves. This is the property both clients (census, parallel
// executor) rely on for bit-identical parallel results.
func FuzzSchedulerDeterminism(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint16(50))
	f.Add(uint64(42), uint8(7), uint16(300))
	f.Add(uint64(0xdead), uint8(1), uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, workers uint8, tasks uint16) {
		w := int(workers%16) + 1
		n := int(tasks%512) + 1
		ref := determinismRun(seed, 1, n)
		got := determinismRun(seed, w, n)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed=%d workers=%d tasks=%d: slot %d = %d, sequential ref %d",
					seed, w, n, i, got[i], ref[i])
			}
		}
		// And again at the same worker count: steal interleavings differ,
		// results must not.
		again := determinismRun(seed, w, n)
		for i := range ref {
			if again[i] != ref[i] {
				t.Fatalf("seed=%d workers=%d tasks=%d: rerun slot %d diverged", seed, w, n, i)
			}
		}
	})
}

// TestSchedulerPanicContainment injects a panicking task body and checks
// the containment contract: the process survives, Drain returns a
// *PanicError carrying the worker id, panic value, and a stack trace, no
// worker goroutine outlives the drain, and the same scheduler drains a
// fresh round.
func TestSchedulerPanicContainment(t *testing.T) {
	for _, workers := range []int{1, 4} {
		base := runtime.NumGoroutine()
		const n = 100
		s := New(workers, func(_ int, task int) {
			if task == 7 {
				panic("poisoned task")
			}
		})
		for i := 0; i < n; i++ {
			s.Spawn(i, i)
		}
		err := s.Drain()
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: Drain = %v, want *PanicError", workers, err)
		}
		if pe.Value != "poisoned task" {
			t.Fatalf("workers=%d: panic value %v", workers, pe.Value)
		}
		if pe.Worker < 0 || pe.Worker >= workers {
			t.Fatalf("workers=%d: panic attributed to worker %d", workers, pe.Worker)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: PanicError carries no stack", workers)
		}
		// A worker has called Done before it exits, so allow the last
		// few a moment to be gone.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("workers=%d: %d goroutines after the drain, %d before", workers, runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
		// Reusable after containment: the failed round's leftovers are
		// gone, so a fresh round runs exactly its own tasks.
		before := s.Counters().Tasks
		for i := 0; i < 10; i++ {
			s.Spawn(i, 100+i)
		}
		if err := s.Drain(); err != nil {
			t.Fatalf("workers=%d: post-panic Drain = %v, want nil", workers, err)
		}
		if got := s.Counters().Tasks - before; got != 10 {
			t.Fatalf("workers=%d: post-panic round ran %d tasks, want 10", workers, got)
		}
	}
}

// TestSchedulerInjectedPanic drives the containment path through the
// faultinject site instead of a panicking body — the chaos-test shape:
// production task bodies, injected failure.
func TestSchedulerInjectedPanic(t *testing.T) {
	inj := faultinject.NewInjector(faultinject.Rule{
		Site: "sched.task", Skip: 5, Count: 1, Action: faultinject.ActPanic,
	})
	faultinject.Install(inj)
	t.Cleanup(faultinject.Uninstall)
	var ran atomic.Int64
	s := New(2, func(_ int, _ int) { ran.Add(1) })
	for i := 0; i < 50; i++ {
		s.Spawn(i, i)
	}
	err := s.Drain()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Drain = %v, want *PanicError from injected panic", err)
	}
	if inj.Triggered("sched.task") != 1 {
		t.Fatalf("injector triggered %d times, want 1", inj.Triggered("sched.task"))
	}
	if ran.Load() >= 50 {
		t.Fatal("injected panic did not abort the drain")
	}
}
