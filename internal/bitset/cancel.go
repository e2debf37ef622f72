package bitset

import "sync/atomic"

// CancelFlag is the cooperative cancellation signal the compose and join
// kernels poll mid-row-loop. It lives in bitset (the lowest executing
// layer) so abort latency is bounded even inside one huge kernel
// invocation: the execution layer sets the flag, and every kernel
// observing it returns early with a partial destination the caller
// discards. The nil *CancelFlag is a valid never-set flag, so
// cancellation stays strictly opt-in — unwired call sites pay one nil
// check per amortization window and nothing else.
type CancelFlag struct {
	stopped atomic.Bool
}

// Set raises the flag. Safe from any goroutine; idempotent.
func (c *CancelFlag) Set() { c.stopped.Store(true) }

// Stopped reports whether the flag has been raised. Safe on a nil
// receiver, which reports false forever.
func (c *CancelFlag) Stopped() bool { return c != nil && c.stopped.Load() }

// cancelCheckInterval is the work budget (in weighted row-output units)
// consumed between consecutive flag loads. The weight of one row is
// 1 + count/64, so a window covers either ~4k tiny rows or ~256k emitted
// pairs — at the kernels' throughput that bounds abort latency well
// under a millisecond while keeping the common-case overhead (one
// predictable branch per row) below the run-to-run noise of bench/'s
// exec_uncached workload (bench/README.md).
const cancelCheckInterval = 4096

// SetCancel attaches (or, with nil, detaches) a cancellation flag to the
// scratch, so kernels poll it amortized during their row loops without
// any kernel signature changing. Scratches are per-worker, so the budget
// counter needs no synchronization.
func (scr *ComposeScratch) SetCancel(f *CancelFlag) {
	scr.cancel = f
	scr.cancelBudget = 0
}

// cancelled is the kernels' amortized poll: it charges the given row
// output against the window budget and loads the flag only when the
// window is exhausted. work is the row's emitted target count; charging
// 1 + work/64 makes the window track real work (words touched), so
// dense universes and sparse ones see similar abort latency.
func (scr *ComposeScratch) cancelled(work int) bool {
	if scr.cancel == nil {
		return false
	}
	scr.cancelBudget -= 1 + work>>6
	if scr.cancelBudget > 0 {
		return false
	}
	scr.cancelBudget = cancelCheckInterval
	return scr.cancel.Stopped()
}
