package sched

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

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

// TestSchedulerDrainStatic pins the static drain's contract: a fully
// pre-seeded round completes every task even when outstanding < workers
// (only that many goroutines start) and when outstanding > workers.
func TestSchedulerDrainStatic(t *testing.T) {
	for _, n := range []int{1, 3, 40} {
		var ran atomic.Int64
		s := New(8, func(_ int, _ int) { ran.Add(1) })
		for i := 0; i < n; i++ {
			s.Spawn(i, i)
		}
		s.DrainStatic()
		if got := ran.Load(); got != int64(n) {
			t.Fatalf("n=%d: ran %d tasks", n, got)
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

// TestClampWorkers pins the idle-worker guard: a worker count is bounded
// by the workload's task ceiling and never drops below one.
func TestClampWorkers(t *testing.T) {
	cases := []struct{ workers, maxTasks, want int }{
		{8, 4, 4},  // more workers than tasks: clamp
		{4, 8, 4},  // enough tasks: unchanged
		{4, 0, 1},  // no tasks at all: one worker, never zero
		{4, -3, 1}, // negative ceiling behaves like none
		{0, 5, 1},  // degenerate worker count floors at one
		{16, 16, 16},
	}
	for _, c := range cases {
		if got := ClampWorkers(c.workers, c.maxTasks); got != c.want {
			t.Fatalf("ClampWorkers(%d, %d) = %d, want %d", c.workers, c.maxTasks, got, c.want)
		}
	}
}

// TestGranularityShards pins the adaptive floor policy: sequential below
// twice either floor, otherwise workers×PerWorker capped by both the
// item and work ceilings.
func TestGranularityShards(t *testing.T) {
	g := Granularity{MinItems: 32, MinWork: 2048, PerWorker: 4}
	cases := []struct {
		items   int
		work    int64
		workers int
		want    int
	}{
		{1000, 100000, 1, 1},  // one worker: always sequential
		{63, 100000, 4, 1},    // under 2×MinItems
		{1000, 4095, 4, 1},    // under 2×MinWork
		{1000, 100000, 4, 16}, // wide open: workers×PerWorker
		{128, 100000, 4, 4},   // item-capped: 128/32
		{1000, 8192, 4, 4},    // work-capped: 8192/2048
		{64, 4096, 16, 2},     // both floors just cleared
	}
	for _, c := range cases {
		if got := g.Shards(c.items, c.work, c.workers); got != c.want {
			t.Fatalf("Shards(%d, %d, %d) = %d, want %d", c.items, c.work, c.workers, got, c.want)
		}
	}
	// Zero MinWork disables the work axis entirely.
	noWork := Granularity{MinItems: 32, PerWorker: 4}
	if got := noWork.Shards(1000, 0, 4); got != 16 {
		t.Fatalf("work axis not disabled: %d", got)
	}
	// PerWorker < 1 is treated as 1.
	flat := Granularity{MinItems: 1, PerWorker: 0}
	if got := flat.Shards(100, 0, 4); got != 4 {
		t.Fatalf("PerWorker floor: %d", got)
	}
}

// TestSchedulerCounters verifies the observability counters: every task
// is attributed to the worker that ran it, the total matches the spawn
// count, and a multi-worker drain with deliberately unbalanced spawning
// records steals.
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
	if c.TotalTasks() != tasks || ran.Load() != tasks {
		t.Fatalf("counted %d tasks (ran %d), want %d", c.TotalTasks(), ran.Load(), tasks)
	}
	if len(c.Tasks) != 4 {
		t.Fatalf("per-worker breakdown has %d slots, want 4", len(c.Tasks))
	}
	var sum int64
	for _, v := range c.Tasks {
		sum += v
	}
	if sum != c.TotalTasks() {
		t.Fatalf("per-worker sum %d != total %d", sum, c.TotalTasks())
	}
	// Counters accumulate across rounds on a reused scheduler.
	s.Spawn(1, 1)
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := s.Counters().TotalTasks(); got != tasks+1 {
		t.Fatalf("counters reset between rounds: %d", got)
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

// TestSchedulerCancelMidDrain cancels from inside a task body and checks
// the full abort contract: Drain returns ErrStopped, every seeded task
// either ran or was handed to Abandon, and the scheduler is reusable for
// a clean follow-up round.
func TestSchedulerCancelMidDrain(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 200
		var ran, abandoned atomic.Int64
		var s *Scheduler[int]
		s = New(workers, func(_ int, task int) {
			if ran.Add(1) == 10 {
				s.Cancel()
			}
		})
		s.Abandon = func(int) { abandoned.Add(1) }
		for i := 0; i < n; i++ {
			s.Spawn(i, i)
		}
		err := s.Drain()
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("workers=%d: Drain = %v, want ErrStopped", workers, err)
		}
		if got := ran.Load() + abandoned.Load(); got != n {
			t.Fatalf("workers=%d: ran %d + abandoned %d = %d, want %d",
				workers, ran.Load(), abandoned.Load(), got, n)
		}
		if ran.Load() >= n {
			t.Fatalf("workers=%d: cancellation did not abandon anything", workers)
		}
		// The signal must be consumed: a fresh round runs clean.
		ran.Store(0)
		abandoned.Store(0)
		s2ran := 0
		s.Abandon = func(int) { t.Error("Abandon called on a clean round") }
		s.body = func(_ int, _ int) { s2ran++ }
		if workers == 1 {
			for i := 0; i < 5; i++ {
				s.Spawn(i, i)
			}
			if err := s.Drain(); err != nil {
				t.Fatalf("post-cancel Drain = %v, want nil", err)
			}
			if s2ran != 5 {
				t.Fatalf("post-cancel round ran %d tasks, want 5", s2ran)
			}
		}
	}
}

// TestSchedulerCancelBeforeDrain pins that a Cancel issued with no drain
// running makes the next drain abandon everything and return ErrStopped.
func TestSchedulerCancelBeforeDrain(t *testing.T) {
	var ran, abandoned atomic.Int64
	s := New(4, func(_ int, _ int) { ran.Add(1) })
	s.Abandon = func(int) { abandoned.Add(1) }
	for i := 0; i < 20; i++ {
		s.Spawn(i, i)
	}
	s.Cancel()
	if !s.stop.Load() {
		t.Fatal("stop signal unset after Cancel")
	}
	if err := s.Drain(); !errors.Is(err, ErrStopped) {
		t.Fatalf("Drain = %v, want ErrStopped", err)
	}
	if ran.Load() != 0 || abandoned.Load() != 20 {
		t.Fatalf("ran=%d abandoned=%d, want 0/20", ran.Load(), abandoned.Load())
	}
	if s.stop.Load() {
		t.Fatal("stop signal still set after the drain consumed it")
	}
}

// TestSchedulerPanicContainment injects a panicking task body and checks
// the containment contract: the process survives, Drain returns a
// *PanicError that unwraps to ErrStopped and carries the worker id,
// panic value, and a stack trace, sibling tasks are abandoned rather
// than run, and the scheduler is reusable.
func TestSchedulerPanicContainment(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 100
		var ran, abandoned atomic.Int64
		s := New(workers, func(_ int, task int) {
			if task == 7 {
				panic("poisoned task")
			}
			ran.Add(1)
		})
		s.Abandon = func(int) { abandoned.Add(1) }
		for i := 0; i < n; i++ {
			s.Spawn(i, i)
		}
		err := s.Drain()
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: Drain = %v, want *PanicError", workers, err)
		}
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("workers=%d: PanicError does not unwrap to ErrStopped", workers)
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
		if got := ran.Load() + abandoned.Load(); got != n-1 {
			t.Fatalf("workers=%d: ran %d + abandoned %d = %d, want %d",
				workers, ran.Load(), abandoned.Load(), got, n-1)
		}
		// Reusable after containment.
		var again atomic.Int64
		s.body = func(_ int, _ int) { again.Add(1) }
		s.Abandon = nil
		for i := 0; i < 10; i++ {
			s.Spawn(i, i)
		}
		if err := s.Drain(); err != nil {
			t.Fatalf("workers=%d: post-panic Drain = %v, want nil", workers, err)
		}
		if again.Load() != 10 {
			t.Fatalf("workers=%d: post-panic round ran %d, want 10", workers, again.Load())
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

// TestSchedulerDrainStaticCancel pins that the static drain honors the
// same cancellation contract as Drain.
func TestSchedulerDrainStaticCancel(t *testing.T) {
	var ran, abandoned atomic.Int64
	var s *Scheduler[int]
	s = New(4, func(_ int, _ int) {
		if ran.Add(1) == 3 {
			s.Cancel()
		}
	})
	s.Abandon = func(int) { abandoned.Add(1) }
	for i := 0; i < 100; i++ {
		s.Spawn(i, i)
	}
	if err := s.DrainStatic(); !errors.Is(err, ErrStopped) {
		t.Fatalf("DrainStatic = %v, want ErrStopped", err)
	}
	if got := ran.Load() + abandoned.Load(); got != 100 {
		t.Fatalf("ran %d + abandoned %d ≠ 100", ran.Load(), abandoned.Load())
	}
}
