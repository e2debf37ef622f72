// Package sched is the shared scheduling layer of the reproduction
// (graph → bitset → sched → {paths, exec} → pathsel): a generic
// work-stealing task scheduler plus per-worker object pooling, and the one
// engine package that starts worker goroutines. Its two clients are the
// selectivity census (paths.NewCensusHybrid), whose subtree tasks split
// dynamically, and a join step's shards (exec.Run), one static round per
// sharded step. The server starts none: a request's queries run one after
// another, each at its estimator's Config.Workers.
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
// workers until every task has completed. Drain starts a worker only
// when a task is waiting for it: min(workers, outstanding) at the start,
// then one more from each Spawn that finds no worker parked, up to the
// worker count — so a round of fewer tasks than workers starts no idle
// goroutine, and a single seed that fans out still fills every worker.
// Drain is reusable: clients with barrier-structured work (the executor
// runs one sharded round per join step) seed and drain repeatedly on the
// same scheduler, keeping worker-indexed state alive across rounds.
//
// Drains are panic-contained. A panic inside a task body is recovered on
// its worker and recorded as a *PanicError carrying the worker id, panic
// value, and stack; the sibling workers stop before their next task,
// every task still queued is dropped, and Drain returns the error instead
// of the process crashing. The scheduler is reusable afterwards. There is
// no other way to end a drain early: clients that abort work cooperatively
// (an execution's bitset.CancelFlag) make their task bodies return early,
// and the drain ends normally.
//
// Determinism is the client's contract, and the scheduler is designed to
// make it cheap: task bodies that write only to task-owned state (disjoint
// slots indexed by task identity, as every client does) produce
// bit-identical results at every worker count and under every steal
// interleaving — FuzzSchedulerDeterminism pins this property.
//
// Pool[T] is the companion per-worker free list: each worker owns one, so
// Get/Put need no synchronization, and objects handed across workers
// inside stolen tasks simply retire into the thief's pool.
package sched
