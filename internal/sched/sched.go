package sched

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
)

// ErrStopped is the typed result of a drain that ended early because
// Cancel was called: the worker set exited promptly, every undrained
// task was discarded (through the Abandon hook when set), and the
// scheduler was reset for reuse. Compare with errors.Is.
var ErrStopped = errors.New("sched: drain cancelled")

// PanicError is the typed result of a drain in which a task body
// panicked: the panic was recovered on the worker, the remaining workers
// were cancelled, and the first recovered panic — value, worker id, and
// stack — is carried here instead of crashing the process. It unwraps to
// ErrStopped, so callers that only distinguish "completed" from
// "aborted" can errors.Is(err, ErrStopped) for both.
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

// Unwrap makes every PanicError match ErrStopped.
func (e *PanicError) Unwrap() error { return ErrStopped }

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

// Scheduler runs tasks of type T over a fixed worker set with per-worker
// deques and FIFO stealing. The task body is fixed at construction; per
// task it receives the executing worker's index, so clients key per-worker
// scratch state (pools, accumulators) by that index without
// synchronization.
type Scheduler[T any] struct {
	body   func(worker int, task T)
	deques []deque[T]

	// Abandon, when non-nil, receives every task a cancelled or panicked
	// drain discards without running, on the coordinator goroutine after
	// all workers have exited — the hook through which clients release
	// resources owned by in-flight tasks (the census returns pooled
	// relations). Set it before the first Spawn; it is never called by a
	// drain that completes normally.
	Abandon func(task T)

	// outstanding counts spawned-but-not-yet-completed tasks; Drain
	// terminates when it reaches zero.
	outstanding atomic.Int64

	// stop is the drain cancellation signal: set by Cancel (or by the
	// panic handler), checked by the owner pop/steal loop before every
	// task and by park before sleeping, and consumed — reset — by the
	// drain that observes it.
	stop atomic.Bool

	// failure holds the first recovered task-body panic of the current
	// drain; the drain returns it and resets the slot.
	failure atomic.Pointer[PanicError]

	// Idle workers park on cond instead of busy-polling; Spawn signals it
	// when sleeping > 0, and the worker that retires the last task
	// broadcasts so parked workers observe termination.
	mu       sync.Mutex
	cond     *sync.Cond
	sleeping atomic.Int64

	// Scheduling-activity counters, cumulative across drains: per-worker
	// executed-task counts, successful steals, and actual parks
	// (cond.Wait entries, not mere park attempts). Atomics so Counters
	// may snapshot them while a drain runs; each increment sits next to
	// a task execution or a deque lock, so the cost disappears into the
	// operation being counted.
	tasks  []atomic.Int64
	steals atomic.Int64
	parks  atomic.Int64
}

// Counters is a snapshot of a scheduler's cumulative scheduling activity
// — the observability the contention suspects are judged by: a
// steals/tasks ratio near zero means shards ran where they were spawned
// (good locality, or no imbalance to fix), a high parks count means
// workers kept running dry (shards too few or too skewed for the worker
// count).
type Counters struct {
	// Tasks is the number of tasks each worker executed, indexed by
	// worker id. Σ Tasks is every task that ran.
	Tasks []int64
	// Steals counts tasks obtained from another worker's deque.
	Steals int64
	// Parks counts workers actually blocking to await work.
	Parks int64
}

// TotalTasks returns Σ Tasks.
func (c Counters) TotalTasks() int64 {
	var n int64
	for _, t := range c.Tasks {
		n += t
	}
	return n
}

// Counters snapshots the scheduler's cumulative activity counters. Safe
// at any time; a snapshot taken mid-drain is internally consistent per
// counter, not across counters.
func (s *Scheduler[T]) Counters() Counters {
	c := Counters{
		Tasks:  make([]int64, len(s.tasks)),
		Steals: s.steals.Load(),
		Parks:  s.parks.Load(),
	}
	for i := range s.tasks {
		c.Tasks[i] = s.tasks[i].Load()
	}
	return c
}

// New returns a scheduler with WorkerCount(workers) workers that executes
// every task with body. No goroutines start until Drain.
func New[T any](workers int, body func(worker int, task T)) *Scheduler[T] {
	n := WorkerCount(workers)
	s := &Scheduler[T]{body: body, deques: make([]deque[T], n), tasks: make([]atomic.Int64, n)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Workers returns the fixed worker count.
func (s *Scheduler[T]) Workers() int { return len(s.deques) }

// Spawn enqueues a task on the given worker's deque (modulo the worker
// count) and wakes a parked worker if any. Call it before Drain to seed
// the initial task set, or from inside a running task body — normally with
// the body's own worker index, so the child is popped LIFO locally and
// stolen FIFO by idle workers.
func (s *Scheduler[T]) Spawn(worker int, task T) {
	s.outstanding.Add(1)
	s.deques[worker%len(s.deques)].push(task)
	if s.sleeping.Load() > 0 {
		s.mu.Lock()
		s.cond.Signal()
		s.mu.Unlock()
	}
}

// Cancel asks the current (or next) drain to stop: workers exit before
// popping or stealing another task, parked workers are woken to observe
// the signal, and the drain discards every task still queued (through
// Abandon when set) before returning ErrStopped. Tasks whose bodies are
// already running are not interrupted — cancellation is cooperative at
// task granularity; bodies that need finer abort latency must check
// their own flag (the execution kernels do, via bitset.CancelFlag).
// Cancel is safe from any goroutine, including task bodies, and is a
// no-op once the signal is already set.
func (s *Scheduler[T]) Cancel() {
	if s.stop.Swap(true) {
		return
	}
	s.wakeAll()
}

// Drain runs one worker goroutine per deque until every spawned task —
// including tasks spawned from inside task bodies — has completed, then
// returns nil. The full worker set must start because bodies may Spawn:
// a single seed can fan out to fill every worker (the census regularly
// seeds fewer tasks than workers and splits deeper in the trie). For
// rounds whose task set is fully seeded up front, DrainStatic is
// cheaper. Drain is a no-op when nothing is outstanding, and reusable:
// seed and drain any number of rounds on the same scheduler.
//
// A drain ends early on two signals, both of which it consumes (the
// scheduler is reset and reusable afterwards): Cancel makes it return
// ErrStopped, and a panicking task body makes it return the recovered
// *PanicError — the panic is caught on the worker, the sibling workers
// are cancelled, and the process survives. Either way, every task still
// queued when the workers exit is handed to the Abandon hook and
// dropped, and no worker goroutine outlives the call.
func (s *Scheduler[T]) Drain() error { return s.drain(len(s.deques)) }

// DrainStatic is Drain for rounds whose tasks are all Spawned before the
// call and whose bodies never Spawn: it starts only min(workers,
// outstanding) goroutines, skipping the spawn and park/broadcast churn
// of goroutines that could never find work. Started goroutines use
// worker ids 0..n−1, so worker-indexed client state still applies;
// tasks seeded onto higher deques are reached by stealing. With
// dynamically-spawning bodies it would serialize the surplus fan-out —
// use Drain there. Cancellation and panic containment behave exactly as
// in Drain.
func (s *Scheduler[T]) DrainStatic() error {
	n := len(s.deques)
	if o := s.outstanding.Load(); o < int64(n) {
		n = int(o)
	}
	return s.drain(n)
}

func (s *Scheduler[T]) drain(workers int) error {
	if s.outstanding.Load() == 0 && !s.stop.Load() {
		return nil
	}
	if !s.stop.Load() {
		var wg sync.WaitGroup
		for id := 0; id < workers; id++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.run(id)
			}()
		}
		wg.Wait()
	}
	if !s.stop.Load() {
		return nil
	}
	// The drain ended on the stop signal (Cancel, a recovered panic, or a
	// Cancel that arrived before this drain started). Discard what never
	// ran, then reset the signal state so the scheduler is reusable.
	for i := range s.deques {
		for {
			t, ok := s.deques[i].steal()
			if !ok {
				break
			}
			s.outstanding.Add(-1)
			if s.Abandon != nil {
				s.Abandon(t)
			}
		}
	}
	s.stop.Store(false)
	if pe := s.failure.Swap(nil); pe != nil {
		return pe
	}
	return ErrStopped
}

// run is the worker loop: drain the local deque LIFO, steal FIFO from
// others when empty, park when no work is visible, exit when no task is
// outstanding anywhere or the stop signal is set.
func (s *Scheduler[T]) run(id int) {
	for {
		if s.stop.Load() {
			return
		}
		t, ok := s.deques[id].pop()
		if !ok {
			if t, ok = s.steal(id); ok {
				s.steals.Add(1)
			}
		}
		if !ok {
			if s.outstanding.Load() == 0 {
				s.wakeAll()
				return
			}
			if !s.park(id) {
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
// here on the worker, recorded as the drain's typed failure (first one
// wins), and converted into a cancellation so sibling workers stop
// instead of the process dying. The faultinject site lets chaos tests
// force this path deterministically.
func (s *Scheduler[T]) exec(id int, t T) {
	defer func() {
		if r := recover(); r != nil {
			s.failure.CompareAndSwap(nil, &PanicError{Worker: id, Value: r, Stack: debug.Stack()})
			s.Cancel()
		}
	}()
	faultinject.Fire("sched.task")
	s.tasks[id].Add(1)
	s.body(id, t)
}

// park blocks until new work may exist. It returns false when the drain is
// complete or cancelled. Announcing sleeping before the final re-scan
// closes the race with Spawn: a spawner that missed the sleeping count
// pushed before our announcement, so the re-scan (which acquires the same
// deque locks) observes its task. The same ordering closes the race with
// Cancel: a canceller that missed the sleeping count set stop before our
// announcement, so the pre-wait stop check observes it.
func (s *Scheduler[T]) park(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sleeping.Add(1)
	defer s.sleeping.Add(-1)
	if s.stop.Load() {
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
