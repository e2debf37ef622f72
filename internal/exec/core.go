package exec

import (
	"runtime/debug"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/paths"
	"repro/internal/relcache"
	"repro/internal/sched"
)

// This file is the one execution lifecycle behind Run. Every relation a
// plan node materializes goes through core.take, every join through
// core.step, and every execution ends in core.finish. The plan's nodes are
// methods on core — fold and elem (rpq.go), tree (bushy.go), leaf
// (exec.go) — that nest freely, so a bushy run block inside an RPQ shares
// the cache view, the live set and the stats of the query it belongs to.

// core is one execution's state: the graph, the options, the execution's
// view of the segment-relation cache, the set of live pooled relations —
// released wholesale on every abort path so a killed query leaks nothing
// — and the stats. It is one sequential strand: every node of a plan,
// a join node's two children included, runs on the execution's one core
// in turn, so no field is ever shared between goroutines. Parallelism
// lives only inside a step, which the core's one stepper shards over
// Options.Workers.
type core struct {
	g   *graph.CSR
	opt Options
	n   int // vertex universe of the executing graph

	// limit is the sparse promotion limit of every relation the execution
	// builds, and the one an adoptable cache entry must carry; with n it
	// pins the representation regime, so adoption is bit-identical to
	// recomputation no matter what the cache holds.
	limit int

	workers int
	stp     *stepper // built on the first join step or multi-label base: a whole-query cache hit allocates no scheduler

	// held[:nheld] and more are the live set: the relations checked out
	// and not yet dropped. The first few sit inline so that a plan that
	// never holds more at once (every zig-zag plan, every whole-query
	// cache hit) tracks them without allocating; a slice pointing back
	// into the core would force it to the heap.
	held  [8]*bitset.HybridRelation
	nheld int
	more  []*bitset.HybridRelation

	// counted is the root's final step when it was counted instead of
	// built (see counts): the node returns no relation and finish reads
	// the result from here.
	counted bitset.Count

	ints         []int64 // intermediates, in step order
	hits, misses int
}

// newCore returns the execution state for one call. It is a value so
// that it stays on the caller's stack.
func newCore(g *graph.CSR, opt Options) core {
	n := g.NumVertices()
	return core{g: g, opt: opt, n: n, limit: bitset.SparseLimit(n, opt.DensityThreshold),
		workers: sched.WorkerCount(opt.Workers)}
}

// stats returns the scheduler activity of the core's stepper: zero when
// no step ever built one.
func (x *core) stats() sched.Counters {
	if x.stp == nil {
		return sched.Counters{}
	}
	return x.stp.sch.Counters()
}

// take checks a relation out of the pool and tracks it live. Unpooled
// executions allocate, and leave what they drop to the garbage collector.
func (x *core) take() *bitset.HybridRelation {
	if x.opt.Pool == nil {
		return bitset.NewHybrid(x.n, x.opt.DensityThreshold)
	}
	rel := x.opt.Pool.Get()
	x.track(rel)
	return rel
}

// track adds a checked-out relation to the live set.
func (x *core) track(rel *bitset.HybridRelation) {
	if x.nheld < len(x.held) {
		x.held[x.nheld] = rel
		x.nheld++
	} else {
		x.more = append(x.more, rel)
	}
}

// eachLive visits the live set.
func (x *core) eachLive(fn func(*bitset.HybridRelation)) {
	for _, r := range x.held[:x.nheld] {
		fn(r)
	}
	for _, r := range x.more {
		fn(r)
	}
}

// drop releases one live relation back to the pool; nil is no relation.
func (x *core) drop(rel *bitset.HybridRelation) {
	if x.opt.Pool == nil || rel == nil {
		return
	}
	for i, r := range x.held[:x.nheld] {
		if r == rel {
			x.nheld--
			x.held[i] = x.held[x.nheld]
			break
		}
	}
	for i, r := range x.more {
		if r == rel {
			last := len(x.more) - 1
			x.more[i] = x.more[last]
			x.more = x.more[:last]
			break
		}
	}
	x.opt.Pool.Put(rel)
}

// price enforces Options.MaxResultBytes against one relation the
// execution hands out, at clone size (content bytes plus a row header per
// vertex: the budget's own measure — the relation cache accounts packed
// bytes — and the same for an adopted relation as for the one it was
// packed from). A nil relation is one that was counted, not
// built — the root's final step, or a leaf's start label, whose relation
// the first step reads from the graph — priced at the clone size the count
// kernel worked out for it: the same number, so counting never moves the
// budget boundary. Over budget it returns ErrBudgetExceeded.
func (x *core) price(rel *bitset.HybridRelation) error {
	if x.opt.MaxResultBytes <= 0 {
		return nil
	}
	var size int
	if rel != nil {
		size = rel.CloneMemSize()
	} else {
		size = x.counted.CloneMemSize(x.n)
	}
	if int64(size) <= x.opt.MaxResultBytes {
		return nil
	}
	return ErrBudgetExceeded
}

// keyRoom is the room a node keeps on its stack for the cache keys it
// encodes: any census-bounded path, and any fold prefix over a handful of
// labels, fits, so probing and publishing allocate nothing; a longer key (a
// wildcard over hundreds of labels) spills to the heap and stays correct.
const keyRoom = 64

// pathKey encodes the cache key of segment seg into buf — the one place a
// label sequence becomes a key (relcache.AppendPath) — or returns nil, no
// key, when nothing is cached under it: there is no cache, or seg is a
// single label, whose relation is a CSR read.
func (x *core) pathKey(buf []byte, seg paths.Path) []byte {
	if x.opt.Cache == nil || len(seg) < 2 {
		return nil
	}
	return relcache.AppendPath(buf, seg)
}

// counts reports whether a root node may count its final step — the one
// producing the relation key names — instead of building it: the caller
// does not keep the result, and the step would not publish it either (a
// nil key: no cache, or nothing cached under it). With a cache every root
// — a concrete path's, a fold's last step, a lone element — builds and
// publishes, so that the query's repeat is a whole-query hit. The last
// step is the result whatever its block's shape, ε and skip being terms of
// the step: an optional last block, a prefix that may be empty and a lone
// unrolled element all count. Only the root asks: every other node's
// output is some later step's input.
func (x *core) counts(key []byte) bool {
	return !x.opt.KeepResult && key == nil
}

// fill makes dst the union of the labels' edge relations — the base a
// plan grows from where there is no relation yet to compose through: a
// single-label query, a plan's first element, an unrolled element's first
// power — and prices it. A nil dst counts the base instead (the root's
// only element, kept by nobody), into x.counted. Single-label relations
// are near-verbatim CSR copies, which is why the cache never holds them;
// a label set's is one pass over the vertices that polls the canceller
// like any step's kernel, and a cancelled pass leaves a partial base that
// is never priced.
func (x *core) fill(dst *bitset.HybridRelation, labels []int) error {
	if len(labels) == 1 && dst != nil {
		dst.FillFromCSR(x.g.LabelOperand(labels[0]))
	} else {
		x.counted = x.stepper().base(x.g, labels, dst)
	}
	if err := x.opt.Cancel.Err(); err != nil {
		return err
	}
	return x.price(dst)
}

// stepper returns the core's stepper, building it on first use.
func (x *core) stepper() *stepper {
	if x.stp == nil {
		x.stp = newStepper(x.n, x.limit, x.workers)
		x.stp.setCancel(x.opt.Cancel.Flag())
	}
	return x.stp
}

// cached materializes the relation cached under key into dst and reports
// whether an adoptable entry existed. A key is the canonical encoding of an
// element sequence (relcache.AppendElem; a label sequence is the all-plain
// case, pathKey); a nil key names nothing cacheable. The cache stores each
// key's relation packed (bitset.Packed) and forward, as every step builds
// it, so adoption is a verbatim copy — bit-identical to recomputing,
// because every kernel picks a row's representation purely from its final
// population against dst's promotion limit. Entries from another universe
// or promotion limit are ignored rather than adopted.
func (x *core) cached(key []byte, dst *bitset.HybridRelation) bool {
	if key == nil {
		return false
	}
	rel, ok := x.opt.Cache.GetKey(key)
	if !ok || rel.Universe() != x.n || rel.SparseMax() != x.limit {
		return false
	}
	rel.CopyInto(dst)
	x.hits++
	return true
}

// publish stores a relation the execution just finished under key and
// counts the miss it answers; a nil key publishes nothing.
func (x *core) publish(key []byte, rel *bitset.HybridRelation) {
	if key != nil {
		x.opt.Cache.PutKey(key, rel)
		x.misses++
	}
}

// whole takes a relation and tries the whole-segment fast path every
// node whose relation has a key starts with: a workload that repeats the
// segment (or another plan that already joined these labels) left the
// finished relation in the cache, so the node adopts it without building
// anything below. On a miss dst is the node's first buffer.
func (x *core) whole(key []byte) (dst *bitset.HybridRelation, hit bool, err error) {
	dst = x.take()
	if x.cached(key, dst) {
		return dst, true, x.price(dst)
	}
	return dst, false, nil
}

// step is the one protocol every join step of every plan shape goes
// through — a leaf's, a join node's, an unrolled power's, a fold's block
// boundary: fire the exec.step fault site (chaos tests insert delays and
// panics here without touching real kernels), check cancellation, adopt
// the relation under key from the cache or compute it into dst and publish
// it, then price dst against the budget. A cancelled step's partial
// destination is discarded, never cached. Every segment is materialized
// either way, so recorded intermediates are identical to an uncached
// run. On error dst stays live for finish to release.
//
// A nil dst is the root's counted final step (see counts): there is
// nothing to adopt into or publish from, compute leaves its outcome in
// x.counted, and that is what gets priced.
func (x *core) step(key []byte, dst *bitset.HybridRelation, compute func() error) error {
	faultinject.Fire("exec.step")
	if err := x.opt.Cancel.Err(); err != nil {
		return err
	}
	if dst == nil || !x.cached(key, dst) {
		if err := compute(); err != nil {
			return err
		}
		if err := x.opt.Cancel.Err(); err != nil {
			return err
		}
		if dst != nil {
			x.publish(key, dst)
		}
	}
	return x.price(dst)
}

// compose is the compute of a compose step left ∘ op — left the rows of
// the segment so far, or, for a leaf's first step, the start label's read
// from the graph instead of from a copy: built into dst, or counted into
// x.counted when dst is nil.
func (x *core) compose(left bitset.Rows, dst *bitset.HybridRelation, op bitset.CSROperand) error {
	x.stepper().compose(left, op)
	return x.run(dst)
}

// through is the compute of a step through a label set, left ∘ (⋃ labels)
// with left's identity terms (bitset.HybridRelation.Extend): the labels'
// relations are read from the graph, never united first.
func (x *core) through(left bitset.Rows, dst *bitset.HybridRelation, labels []int) error {
	x.stepper().through(x.g, left, labels)
	return x.run(dst)
}

// join is the compute of a join step left ∘ r, with left's identity terms:
// built into dst, or counted into x.counted when dst is nil.
func (x *core) join(left bitset.Rows, dst, r *bitset.HybridRelation) error {
	x.stepper().join(left, r)
	return x.run(dst)
}

// run carries out the step the stepper was just given.
func (x *core) run(dst *bitset.HybridRelation) error {
	c, err := x.stp.run(dst)
	if dst == nil {
		x.counted = c
	}
	return err
}

// containPanics invokes fn, converting an escaping panic into the same
// typed *sched.PanicError the scheduler produces for a panic contained
// on a worker; Worker −1 marks a goroutine the scheduler does not own.
// A panic anywhere on the execution path — a fault-injection site, a
// kernel bug — surfaces as an error instead of unwinding through the
// caller (in a server, that unwind severs the client's connection).
// Precondition panics (caller bugs) must be raised before entering fn.
func containPanics(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &sched.PanicError{Worker: -1, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// finish runs the plan's root node and ends the execution — the one
// place that happens. A dead canceller aborts before any relation
// materializes; a panic on the caller's goroutine is contained as a
// typed error (worker-side panics are contained by the scheduler before
// they reach here); on any error the returned relation is nil and every
// live relation is back in the pool, every row cleared. A root that counted its final step
// returns no relation; one that had to build it (a cache adoption, a
// published result, a single-label query) hands it over, and
// unless Options.KeepResult asks for it finish reads its size and
// releases it — so without KeepResult the returned relation is always
// nil, and with it the survivor's result stays checked out for the
// caller to release.
func (x *core) finish(root func() (*bitset.HybridRelation, error)) (rel *bitset.HybridRelation, st Stats, err error) {
	if err := x.opt.Cancel.Err(); err != nil {
		return nil, st, err
	}
	err = containPanics(func() (e error) {
		rel, e = root()
		return e
	})
	st = Stats{Intermediates: x.ints, CacheHits: x.hits, CacheMisses: x.misses, Sched: x.stats()}
	if err != nil {
		// A step a panic aborted may have written rows it never listed,
		// which the pool's Reset would not empty; an eps step or a join's
		// right side would read them in a later query.
		x.eachLive((*bitset.HybridRelation).Clear)
		x.eachLive(x.opt.Pool.Put)
		return nil, st, err
	}
	for _, v := range st.Intermediates {
		st.Work += v
	}
	if rel == nil {
		st.Result = x.counted.Pairs
		return nil, st, nil
	}
	st.Result = rel.Pairs()
	if !x.opt.KeepResult {
		x.drop(rel)
		rel = nil
	}
	return rel, st, nil
}
