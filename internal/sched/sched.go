package sched

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// PanicError is the typed result of a drain in which a task body
// panicked: the panic was recovered on the worker, the remaining workers
// stopped, and the first recovered panic — value, worker id, and stack —
// is carried here instead of crashing the process.
type PanicError struct {
	// Worker is the scheduler worker id whose task body panicked.
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error renders the panic with its origin worker.
func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: task body panicked on worker %d: %v", e.Worker, e.Value)
}

// deque is a mutex-guarded work-stealing deque: the owner pushes and pops
// at the tail (LIFO), thieves take from the head (FIFO). The mutex is
// uncontended in the common case — owners touch their own deque far more
// often than thieves do — so a lock-free deque would buy little here.
type deque[T any] struct {
	mu    sync.Mutex
	tasks []T
	head  int
}

func (d *deque[T]) push(t T) {
	d.mu.Lock()
	d.tasks = append(d.tasks, t)
	d.mu.Unlock()
}

func (d *deque[T]) pop() (T, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == len(d.tasks) {
		var zero T
		return zero, false
	}
	t := d.tasks[len(d.tasks)-1]
	var zero T
	d.tasks[len(d.tasks)-1] = zero
	d.tasks = d.tasks[:len(d.tasks)-1]
	if d.head == len(d.tasks) {
		d.tasks = d.tasks[:0]
		d.head = 0
	}
	return t, true
}

func (d *deque[T]) steal() (T, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == len(d.tasks) {
		var zero T
		return zero, false
	}
	t := d.tasks[d.head]
	var zero T
	d.tasks[d.head] = zero
	d.head++
	if d.head == len(d.tasks) {
		d.tasks = d.tasks[:0]
		d.head = 0
	}
	return t, true
}

// size returns the number of queued tasks, briefly taking the lock.
func (d *deque[T]) size() int {
	d.mu.Lock()
	n := len(d.tasks) - d.head
	d.mu.Unlock()
	return n
}

// Scheduler runs tasks of type T over up to a fixed number of workers
// with per-worker deques and FIFO stealing. The task body is fixed at
// construction; per task it receives the executing worker's index, so
// clients key per-worker scratch state (pools, accumulators) by that index
// without synchronization.
type Scheduler[T any] struct {
	body   func(worker int, task T)
	deques []deque[T]

	// outstanding counts spawned-but-not-yet-completed tasks; Drain
	// terminates when it reaches zero.
	outstanding atomic.Int64

	// started counts the worker goroutines of the running drain (worker
	// ids 0..started−1); it is zero between drains, so a seeding Spawn
	// starts none. wg waits for them.
	started atomic.Int64
	wg      sync.WaitGroup

	// failure holds the first recovered task-body panic of the current
	// drain. Once set it is the stop signal: workers check it before
	// every task and before parking. The drain returns it and resets it.
	failure atomic.Pointer[PanicError]

	// Idle workers park on cond instead of busy-polling; Spawn signals it
	// when sleeping > 0, and the worker that retires the last task
	// broadcasts so parked workers observe termination.
	mu       sync.Mutex
	cond     *sync.Cond
	sleeping atomic.Int64

	// Scheduling-activity counters, cumulative across drains. Atomics so
	// Counters may snapshot them while a drain runs; each increment sits
	// next to a task execution or a deque lock, so the cost disappears
	// into the operation being counted.
	tasks, steals, parks atomic.Int64
}

// Counters is a snapshot of a scheduler's cumulative scheduling activity
// — the observability the contention suspects are judged by: a
// steals/tasks ratio near zero means tasks ran where they were spawned
// (good locality, or no imbalance to fix), a high parks count means
// workers kept running dry (tasks too few or too skewed for the worker
// count).
type Counters struct {
	// Tasks counts task bodies run.
	Tasks int64
	// Steals counts tasks obtained from another worker's deque.
	Steals int64
	// Parks counts workers actually blocking to await work.
	Parks int64
}

// Counters snapshots the scheduler's cumulative activity counters. Safe
// at any time; a snapshot taken mid-drain is internally consistent per
// counter, not across counters.
func (s *Scheduler[T]) Counters() Counters {
	return Counters{Tasks: s.tasks.Load(), Steals: s.steals.Load(), Parks: s.parks.Load()}
}

// New returns a scheduler with WorkerCount(workers) workers that executes
// every task with body. No goroutines start until Drain.
func New[T any](workers int, body func(worker int, task T)) *Scheduler[T] {
	s := &Scheduler[T]{body: body, deques: make([]deque[T], WorkerCount(workers))}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Workers returns the fixed worker count.
func (s *Scheduler[T]) Workers() int { return len(s.deques) }

// WorkerCount normalizes a worker-count knob: values ≤ 0 select
// GOMAXPROCS, re-read at call time — a process that adjusts GOMAXPROCS
// after start (container managers and tests do) gets the current value,
// not a stale snapshot. Every layer that exposes a Workers option
// (pathsel.Config, paths.CensusOptions, exec.Options) resolves it through
// this one rule.
func WorkerCount(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Spawn enqueues a task on the given worker's deque (modulo the worker
// count). Call it before Drain to seed the initial task set, or from
// inside a running task body — normally with the body's own worker index,
// so the child is popped LIFO locally and stolen FIFO by idle workers.
// Inside a drain it wakes a parked worker if there is one, and otherwise
// starts one more worker while fewer than the worker count run.
func (s *Scheduler[T]) Spawn(worker int, task T) {
	s.outstanding.Add(1)
	s.deques[worker%len(s.deques)].push(task)
	if s.sleeping.Load() > 0 {
		s.mu.Lock()
		s.cond.Signal()
		s.mu.Unlock()
		return
	}
	for n := s.started.Load(); n > 0 && n < int64(len(s.deques)); n = s.started.Load() {
		if s.started.CompareAndSwap(n, n+1) {
			s.start(int(n))
			return
		}
	}
}

// Drain runs worker goroutines until every spawned task — including tasks
// spawned from inside task bodies — has completed, then returns nil. It
// starts a worker only when a task is waiting for it: min(workers,
// outstanding) at the start, then one more from each Spawn that finds no
// worker parked, up to the worker count. Started workers use ids
// 0..n−1; tasks seeded onto higher deques are reached by stealing. Drain
// is a no-op when nothing is outstanding, and reusable: seed and drain
// any number of rounds on the same scheduler.
//
// A panicking task body ends the drain early: the panic is caught on the
// worker, the sibling workers stop before their next task, every task
// still queued is dropped, and Drain returns the recovered *PanicError —
// the process survives, no worker goroutine outlives the call, and the
// scheduler is reusable.
func (s *Scheduler[T]) Drain() error {
	n := min(int64(len(s.deques)), s.outstanding.Load())
	if n == 0 {
		return nil
	}
	s.started.Store(n)
	for id := range int(n) {
		s.start(id)
	}
	s.wg.Wait()
	s.started.Store(0)
	pe := s.failure.Swap(nil)
	if pe == nil {
		return nil
	}
	for i := range s.deques {
		d := &s.deques[i]
		clear(d.tasks)
		d.tasks, d.head = d.tasks[:0], 0
	}
	s.outstanding.Store(0)
	return pe
}

// start runs worker id's loop on a new goroutine the drain waits for.
func (s *Scheduler[T]) start(id int) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.run(id)
	}()
}

// run is the worker loop: drain the local deque LIFO, steal FIFO from
// others when empty, park when no work is visible, exit when no task is
// outstanding anywhere or a task body panicked.
func (s *Scheduler[T]) run(id int) {
	for s.failure.Load() == nil {
		t, ok := s.deques[id].pop()
		if !ok {
			if t, ok = s.steal(id); ok {
				s.steals.Add(1)
			}
		}
		if !ok {
			if s.outstanding.Load() == 0 || !s.park(id) {
				s.wakeAll()
				return
			}
			continue
		}
		s.exec(id, t)
		if s.outstanding.Add(-1) == 0 {
			s.wakeAll()
		}
	}
}

// exec runs one task body with panic containment: a panic is recovered
// here on the worker and recorded as the drain's typed failure (first one
// wins), which stops the sibling workers instead of the process dying.
// The faultinject site lets chaos tests force this path deterministically.
func (s *Scheduler[T]) exec(id int, t T) {
	defer func() {
		if r := recover(); r != nil {
			s.failure.CompareAndSwap(nil, &PanicError{Worker: id, Value: r, Stack: debug.Stack()})
			s.wakeAll()
		}
	}()
	faultinject.Fire("sched.task")
	s.tasks.Add(1)
	s.body(id, t)
}

// park blocks until new work may exist. It returns false when the drain is
// complete or failed. Announcing sleeping before the final re-scan closes
// the race with Spawn: a spawner that missed the sleeping count pushed
// before our announcement, so the re-scan (which acquires the same deque
// locks) observes its task. The same ordering closes the race with a
// panicking worker: one that wakes before we wait recorded its failure
// before we took the lock, so the pre-wait check observes it.
func (s *Scheduler[T]) park(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sleeping.Add(1)
	defer s.sleeping.Add(-1)
	if s.failure.Load() != nil {
		return false
	}
	if s.hasWork(id) {
		return true // let the caller re-scan and actually steal it
	}
	if s.outstanding.Load() == 0 {
		return false
	}
	s.parks.Add(1)
	s.cond.Wait()
	return true
}

// hasWork reports whether any deque — including the caller's own, which
// another worker may Spawn onto — is non-empty, without consuming
// anything.
func (s *Scheduler[T]) hasWork(id int) bool {
	for i := 0; i < len(s.deques); i++ {
		if s.deques[(id+i)%len(s.deques)].size() > 0 {
			return true
		}
	}
	return false
}

func (s *Scheduler[T]) wakeAll() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// steal scans the other deques round-robin from the caller's position and
// takes the first available head task.
func (s *Scheduler[T]) steal(id int) (T, bool) {
	for i := 1; i < len(s.deques); i++ {
		if t, ok := s.deques[(id+i)%len(s.deques)].steal(); ok {
			return t, ok
		}
	}
	var zero T
	return zero, false
}

// Pool is a per-worker free list. Each worker owns one, so Get and Put
// need no synchronization; objects that cross workers inside stolen tasks
// retire into the thief's pool. The zero Pool with New set is ready to
// use.
type Pool[T any] struct {
	// New constructs a fresh object when the free list is empty.
	New  func() T
	free []T
}

// Get returns a pooled object, constructing one with New if none is free.
func (p *Pool[T]) Get() T {
	if k := len(p.free); k > 0 {
		t := p.free[k-1]
		var zero T
		p.free[k-1] = zero
		p.free = p.free[:k-1]
		return t
	}
	return p.New()
}

// Put retires an object into the free list for reuse.
func (p *Pool[T]) Put(t T) { p.free = append(p.free, t) }
