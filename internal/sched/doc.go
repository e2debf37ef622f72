// Package sched is the shared scheduling layer of the reproduction
// (graph → bitset → sched → {paths, exec} → pathsel): a generic
// work-stealing task scheduler plus per-worker object pooling, hoisted out
// of the census engine so every parallel workload — the selectivity census
// (paths.NewCensusHybrid), parallel query execution (exec.Run),
// and future bushy-plan builders — schedules through one engine instead of
// growing a private copy of the deque machinery.
//
// The model is a fixed set of workers, each owning a deque of tasks. A
// worker pushes and pops at its own deque's tail (LIFO, preserving DFS
// locality) and steals from other deques' heads (FIFO, so the shallowest —
// typically largest — tasks migrate first). Idle workers park on a
// condition variable instead of busy-polling; Spawn wakes them, and the
// worker that retires the last outstanding task broadcasts termination.
//
// Usage: build a Scheduler with New(workers, body), enqueue work with
// Spawn (before Drain to seed, or from inside a task body to split
// dynamically — spawn onto the body's own worker so the task is popped
// LIFO locally and stolen FIFO globally), and call Drain to run the
// worker goroutines until every task has completed. Drain is reusable:
// clients with barrier-structured work (the parallel executor runs one
// sharded composition per join step) seed and drain repeatedly on the
// same scheduler, keeping worker-indexed state alive across rounds.
//
// Drains are cancellable and panic-contained. Cancel sets an atomic stop
// flag that every worker checks before popping or stealing another task
// and that parked workers are woken to observe; the interrupted drain
// hands still-queued tasks to the Abandon hook (so clients can release
// task-owned resources such as pooled relations) and returns ErrStopped.
// A panic inside a task body is recovered on its worker, recorded as a
// *PanicError carrying the worker id, panic value, and stack, and
// converted into a cancellation of the sibling workers — one poisoned
// task aborts the drain with a typed error instead of crashing the
// process. Both signals are consumed by the drain that observes them:
// the scheduler resets and remains reusable.
//
// Determinism is the client's contract, and the scheduler is designed to
// make it cheap: task bodies that write only to task-owned state (disjoint
// slots indexed by task identity, as both current clients do) produce
// bit-identical results at every worker count and under every steal
// interleaving — FuzzSchedulerDeterminism pins this property.
//
// Pool[T] is the companion per-worker free list: each worker owns one, so
// Get/Put need no synchronization, and objects handed across workers
// inside stolen tasks simply retire into the thief's pool.
package sched
