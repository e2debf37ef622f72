package exec

import (
	"context"
	"errors"
	"sync"

	"repro/internal/bitset"
	"repro/internal/sched"
)

// This file holds the execution layer's cancellation substrate: the typed
// abort errors, the Canceller that carries an abort cause down to the
// bitset kernels' cooperative flag, the context bridge that turns a
// context deadline into a Canceller, and the relation pool that abort
// paths release their buffers into so a killed query leaks nothing.

// Typed abort causes. Every error an execution returns matches exactly
// one of these under errors.Is, or — a contained panic — is a
// *sched.PanicError under errors.As.
var (
	// ErrCancelled is the cause of an execution aborted by an explicit
	// Canceller.Cancel or a cancelled (non-deadline) context.
	ErrCancelled = errors.New("exec: execution cancelled")
	// ErrDeadlineExceeded is the cause of an execution aborted because
	// its context's deadline passed mid-flight.
	ErrDeadlineExceeded = errors.New("exec: execution deadline exceeded")
	// ErrBudgetExceeded is the cause of an execution aborted because a
	// materialized relation outgrew Options.MaxResultBytes.
	ErrBudgetExceeded = errors.New("exec: result size budget exceeded")
)

// Canceller is the execution-layer cancellation handle: an abort cause
// plus the cooperative flag (bitset.CancelFlag) the compose and join
// kernels poll mid-row-loop, so one Cancel call bounds the abort latency
// of every worker of every step sharing the canceller. The zero
// Canceller is ready to use; the nil *Canceller is a valid
// never-cancelled handle, which is how unwired call sites stay
// zero-cost.
type Canceller struct {
	flag  bitset.CancelFlag
	mu    sync.Mutex
	cause error
}

// Cancel aborts the executions sharing the canceller with the given
// cause (nil selects ErrCancelled). The first cause wins; later calls
// only re-raise the flag. Safe from any goroutine.
func (c *Canceller) Cancel(cause error) {
	if cause == nil {
		cause = ErrCancelled
	}
	c.mu.Lock()
	if c.cause == nil {
		c.cause = cause
	}
	c.mu.Unlock()
	// Raise the flag only after the cause is stored: an executor that
	// observes the flag always finds a non-nil cause behind it.
	c.flag.Set()
}

// Err returns the abort cause, or nil while the canceller is unset. Safe
// on a nil receiver (always nil) and from any goroutine; the uncancelled
// fast path is one atomic load.
func (c *Canceller) Err() error {
	if c == nil || !c.flag.Stopped() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cause
}

// Flag returns the kernel-level cooperative flag (nil for a nil
// canceller) for wiring into compose scratches.
func (c *Canceller) Flag() *bitset.CancelFlag {
	if c == nil {
		return nil
	}
	return &c.flag
}

// NewCancellerContext bridges a context into a Canceller: when ctx is
// done the canceller is cancelled with ErrDeadlineExceeded or
// ErrCancelled to match ctx.Err. A context already done cancels it before
// the call returns, so an execution given a dead context never starts.
// Otherwise the bridge is a context.AfterFunc registration — no
// goroutine, channel or once per query — and the returned release func
// withdraws it; call it (typically deferred) when the execution returns.
// A nil, never-done or already-done context needs no bridge — release is
// then a no-op.
func NewCancellerContext(ctx context.Context) (*Canceller, func()) {
	c := &Canceller{}
	if ctx == nil || ctx.Done() == nil {
		return c, func() {}
	}
	cancel := func() {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			c.Cancel(ErrDeadlineExceeded)
		} else {
			c.Cancel(ErrCancelled)
		}
	}
	if ctx.Err() != nil {
		cancel()
		return c, func() {}
	}
	stop := context.AfterFunc(ctx, cancel)
	return c, func() { stop() }
}

// RelPool is a shared free list of hybrid relations over one
// representation regime (universe size and density threshold fixed at
// construction). Executions draw every relation they materialize from
// the pool and release them on completion and on every abort path, so a
// cancelled or panicked query returns the pool to its baseline
// occupancy — the leak-hygiene property the abort tests pin via InUse.
// All methods are safe for concurrent use; the underlying free list is a
// sched.Pool behind the pool's own mutex.
type RelPool struct {
	mu    sync.Mutex
	free  sched.Pool[*bitset.HybridRelation]
	inUse int
}

// NewRelPool returns a pool of relations over an n-vertex universe at
// the given density threshold.
func NewRelPool(n int, density float64) *RelPool {
	p := &RelPool{}
	p.free.New = func() *bitset.HybridRelation { return bitset.NewHybrid(n, density) }
	return p
}

// Get returns an empty relation, reusing a released one when available.
// A pooled relation is empty at rest (see Put), so Get writes nothing.
func (p *RelPool) Get() *bitset.HybridRelation {
	p.mu.Lock()
	p.inUse++
	rel := p.free.Get()
	p.mu.Unlock()
	return rel
}

// Put releases a relation back to the pool, emptied (Reset) on the way in
// — right after the use that wrote its rows, while they are still in
// cache, rather than at the next checkout. The caller must not read it
// afterwards. A nil relation is ignored, so abort paths release
// unconditionally.
func (p *RelPool) Put(rel *bitset.HybridRelation) {
	if rel == nil {
		return
	}
	rel.Reset()
	p.mu.Lock()
	p.inUse--
	p.free.Put(rel)
	p.mu.Unlock()
}

// InUse returns the number of relations currently checked out — zero
// when every execution has completed or aborted cleanly.
func (p *RelPool) InUse() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inUse
}
