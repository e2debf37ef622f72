// Package relcache is the workload-level segment-relation cache: a
// sharded, size-bounded LRU of materialized label-segment relations
// (bitset.HybridRelation), keyed by the canonical label sequence alone
// — one entry per sequence, whichever direction it was built in. The
// executor (internal/exec) consults it at every
// segment boundary — a query that re-walks a label subsequence another
// query already materialized adopts the finished relation instead of
// recomputing it. An estimator owns at most one (pathsel.Config
// .CacheBytes), shared by every execution, single or batched, which is
// where the amortization pays: real path-query workloads repeat label
// subsequences constantly.
//
// # Immutability and the pools
//
// Execution relations live in per-call pooled buffers that are reused and
// rewritten step after step, so the cache can alias nothing: Put clones
// the relation into a private exact-size copy (copy-on-adopt going in),
// and consumers copy a Get result into their own pooled buffer before
// touching it (copy-on-adopt coming out). Cached relations are therefore
// immutable for their whole lifetime, which is what makes a cache hit
// bit-identical to recomputation: relation construction is deterministic
// and representation (sparse/dense per row, active order) is a pure
// function of the pair set and the promotion limit, so a copied cache
// entry is structurally indistinguishable from a freshly built relation.
//
// # Keys and eviction
//
// Keys are position-independent: the segment p[2:4) of one query and
// p[0:2) of another share an entry when their label sequences match.
// Keys are also orientation-canonical: the executor's leftward growth
// operates on reversed relations — reversed(p[i:k)) is the inverse pair
// set of p[i:k) — but the two forms are pure derivations of each other
// (bitset.HybridRelation.ReverseInto), so the cache stores exactly one
// relation per label sequence, tagged with the orientation it holds, and
// a consumer wanting the other form derives it on adoption. One entry
// then serves forward and backward plans alike, which both halves the
// byte footprint of mixed-direction workloads and turns what used to be
// a cross-orientation miss into a hit.
//
// Recency is a per-entry stamp from a cache-wide monotonic clock,
// refreshed by Get with a single atomic store; eviction (under a shard's
// write lock, in Put) removes the smallest-stamp entry until the new one
// fits. Stamps are unique and monotonic, so eviction order is exactly
// least-recently-used and fully deterministic for a sequential history —
// the stamp scheme trades the linked-list bookkeeping (which forced Get
// to take an exclusive lock) for an approximation that only differs under
// racing Gets, where "recency order" was never well-defined anyway. Cost
// is accounted in exact bytes (bitset.HybridRelation.MemSize), so the
// bound is a real memory budget, not an entry count. Relations larger
// than a shard's whole budget are rejected outright rather than flushing
// the shard.
//
// # Locking
//
// Each shard has one RWMutex: Get and Contains take the read side — a
// warm workload's concurrent readers share every shard — and only Put
// takes the write side. Lock acquisitions try the uncontended fast path
// first and fall back to a timed wait whose duration feeds per-shard
// lock-wait tallies (Stats.LockWaitNs, Stats.ShardLockWaitNs), so shard
// contention is observable in production stats, not just in mutex
// profiles.
//
// A cache is bound to one graph: keys carry no graph identity, so sharing
// a cache across graphs returns wrong relations. Its owner (a
// pathsel.Estimator) must create one cache per graph.
package relcache

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/paths"
)

// Defaults for Options fields left zero.
const (
	// DefaultMaxBytes is the default total byte budget (64 MiB).
	DefaultMaxBytes = 64 << 20
	// DefaultShards is the default shard count. Shards bound lock
	// contention when batch workers execute queries concurrently; each
	// shard owns 1/DefaultShards of the byte budget.
	DefaultShards = 8
	// maxShards caps the shard count: beyond this, per-shard budgets get
	// so small that sharding evicts entries a unified cache would keep.
	maxShards = 256
)

// Options configures a Cache.
type Options struct {
	// MaxBytes is the total byte budget across all shards (≤ 0 selects
	// DefaultMaxBytes). Entry cost is the cached relation's exact
	// MemSize plus key and bookkeeping overhead.
	MaxBytes int64
	// Shards is the number of independently locked LRU shards (≤ 0
	// selects DefaultShards). Rounded up to a power of two and capped at
	// 256.
	Shards int
}

// Stats is a point-in-time snapshot of the cache's counters. Hits,
// Misses, Puts, Evictions, Rejected, and the lock-wait tallies are
// cumulative; Entries, Bytes, and MaxBytes describe current occupancy.
type Stats struct {
	Hits      uint64 // Get calls that returned a relation
	Misses    uint64 // Get calls that found nothing adoptable
	Puts      uint64 // successful inserts (including overwrites)
	Evictions uint64 // entries evicted to make room
	Rejected  uint64 // Put calls refused (relation larger than a shard budget)
	Entries   int    // live entries right now
	Bytes     int64  // accounted bytes right now
	MaxBytes  int64  // configured budget
	Shards    int    // configured shard count (after power-of-two rounding)
	// LockWaitNs is the total time callers spent blocked acquiring shard
	// locks (read and write side), summed across shards. Zero under an
	// uncontended workload — the fast path never starts a timer.
	LockWaitNs int64
	// ShardLockWaitNs breaks LockWaitNs down by shard, exposing skew: one
	// hot shard (a popular segment hashing with its neighbors) shows up
	// here while the aggregate still looks tame.
	ShardLockWaitNs []int64
}

// entry is one cached relation. reversed records which orientation of
// the label sequence rel holds; the other is derived by the consumer on
// adoption. used is the recency stamp — the cache clock's value at the
// entry's last Get (or its insertion) — written with a plain atomic
// store so readers holding only the shard's read lock can refresh it.
type entry struct {
	key      string
	rel      *bitset.HybridRelation
	reversed bool
	cost     int64
	used     atomic.Int64
}

// shard is one independently locked slice of the cache. bytes is written
// only under mu's write side but read lock-free by Stats, hence atomic.
type shard struct {
	mu      sync.RWMutex
	entries map[string]*entry
	bytes   atomic.Int64
	cap     int64
	waitNs  atomic.Int64
}

// rlock acquires the read side, tallying wait time when contended.
func (sh *shard) rlock() {
	if sh.mu.TryRLock() {
		return
	}
	start := time.Now()
	sh.mu.RLock()
	sh.waitNs.Add(time.Since(start).Nanoseconds())
}

// lock acquires the write side, tallying wait time when contended.
func (sh *shard) lock() {
	if sh.mu.TryLock() {
		return
	}
	start := time.Now()
	sh.mu.Lock()
	sh.waitNs.Add(time.Since(start).Nanoseconds())
}

// Cache is the sharded segment-relation cache. All methods are safe for
// concurrent use.
type Cache struct {
	shards []shard
	mask   uint32

	// clock is the cache-wide recency counter: every hit and insert takes
	// the next tick, so entry stamps are unique and monotonic.
	clock atomic.Int64

	hits, misses, puts, evictions, rejected atomic.Uint64
}

// New returns an empty cache with the given budget and shard count
// (zero-valued Options select the defaults).
func New(opt Options) *Cache {
	maxBytes := opt.MaxBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	n := opt.Shards
	if n <= 0 {
		n = DefaultShards
	}
	if n > maxShards {
		n = maxShards
	}
	// Round up to a power of two so shard selection is a mask.
	pow := 1
	for pow < n {
		pow <<= 1
	}
	c := &Cache{shards: make([]shard, pow), mask: uint32(pow - 1)}
	per := maxBytes / int64(pow)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*entry)
		c.shards[i].cap = per
	}
	return c
}

// keyInline is the key buffer Get and Contains keep on their stack: 16
// labels at up to 4 varint bytes each (label ids below 2^28), so probing
// the cache for any census-bounded segment allocates nothing. Longer keys
// spill to the heap and stay correct.
const keyInline = 64

// appendKey appends the canonical cache key of p to buf: the label
// sequence varint-encoded. Canonical means position- and
// orientation-independent — equal label subsequences key the same entry
// wherever they sit in their queries and whichever direction their
// relation was built in (the entry records which orientation it holds) —
// and unambiguous (varints self-delimit). Lookups index the shard map with
// string(key) in place, which builds no string; only Put keeps an owned
// one.
func appendKey(buf []byte, p paths.Path) []byte {
	for _, l := range p {
		buf = binary.AppendUvarint(buf, uint64(l))
	}
	return buf
}

// shardFor hashes a key to its shard (FNV-1a).
func (c *Cache) shardFor(k []byte) *shard {
	h := uint32(2166136261)
	for _, b := range k {
		h ^= uint32(b)
		h *= 16777619
	}
	return &c.shards[h&c.mask]
}

// Get returns the cached relation for the segment's label sequence,
// along with the orientation it holds (true = the reversed pair set), or
// (nil, false, false). A caller wanting the other orientation derives it
// (bitset.HybridRelation.ReverseInto) — which is why one entry serves
// both directions. The returned relation is shared and immutable: the
// caller must copy it (CopyInto / ReverseInto) before any mutation, and
// must verify it matches the caller's representation regime (Universe,
// SparseMax) before adopting it.
//
// Get takes only the shard's read lock — a hit refreshes recency with an
// atomic stamp, not a list splice — so concurrent warm readers never
// serialize on each other, only on a simultaneous Put to the same shard.
func (c *Cache) Get(p paths.Path) (rel *bitset.HybridRelation, reversed, ok bool) {
	var buf [keyInline]byte
	k := appendKey(buf[:0], p)
	sh := c.shardFor(k)
	sh.rlock()
	e, ok := sh.entries[string(k)]
	if ok {
		e.used.Store(c.clock.Add(1))
		rel, reversed = e.rel, e.reversed
	}
	sh.mu.RUnlock()
	if !ok {
		c.misses.Add(1)
		return nil, false, false
	}
	c.hits.Add(1)
	return rel, reversed, true
}

// Contains reports whether the segment is cached (in either
// orientation), without touching the recency stamps or the hit/miss
// counters — the planner's cost probe (exec.Planner.Cached) must not
// perturb recency while enumerating O(k²) candidate segments.
func (c *Cache) Contains(p paths.Path) bool {
	var buf [keyInline]byte
	k := appendKey(buf[:0], p)
	sh := c.shardFor(k)
	sh.rlock()
	_, ok := sh.entries[string(k)]
	sh.mu.RUnlock()
	return ok
}

// entryOverhead approximates an entry's bookkeeping bytes beyond the
// relation itself: the entry struct, the map slot, and the key header.
const entryOverhead = 96

// Put stores the segment's relation in the given orientation, cloning it
// so the cache entry stays valid while the caller's pooled buffers are
// reused (the clone is exact-size, so accounting is tight). An existing
// entry under the same label sequence is replaced whatever orientation
// it held — the canonical key keeps exactly one relation per sequence,
// and replacement (rather than skip) lets a fresh-regime relation oust a
// stale one that adoption guards were rejecting. Relations whose cost
// exceeds one shard's whole budget are rejected — caching them would
// flush everything else for an entry that cannot amortize — and the cost
// is priced from the source relation (CloneMemSize) before any copying,
// so an oversized relation published on every query of a workload costs
// a size computation, not a discarded multi-megabyte clone each time.
// The relcache.put fault site models the clone failing to allocate: a
// triggered injection turns the call into a counted rejection, the same
// graceful degradation as an oversized entry (service continues, the
// segment just stays uncached).
//
// Eviction scans the shard for the smallest recency stamp. The scan is
// O(entries), but it runs under the write lock Put already holds, only
// when over budget, and shard entry counts are small by construction
// (the byte budget divided by relation sizes) — the trade buys Get its
// read-lock-only hot path.
func (c *Cache) Put(p paths.Path, reversed bool, rel *bitset.HybridRelation) {
	var buf [keyInline]byte
	kb := appendKey(buf[:0], p)
	sh := c.shardFor(kb)
	k := string(kb)
	cost := int64(rel.CloneMemSize()) + int64(len(k)) + entryOverhead
	if cost > sh.cap || faultinject.Fail("relcache.put") {
		c.rejected.Add(1)
		return
	}
	clone := rel.Clone()
	e := &entry{key: k, rel: clone, reversed: reversed, cost: cost}
	e.used.Store(c.clock.Add(1))
	sh.lock()
	if old, ok := sh.entries[k]; ok {
		sh.bytes.Add(-old.cost)
		delete(sh.entries, k)
	}
	var evicted uint64
	for sh.bytes.Load()+cost > sh.cap && len(sh.entries) > 0 {
		var victim *entry
		for _, cand := range sh.entries {
			if victim == nil || cand.used.Load() < victim.used.Load() {
				victim = cand
			}
		}
		sh.bytes.Add(-victim.cost)
		delete(sh.entries, victim.key)
		evicted++
	}
	sh.entries[k] = e
	sh.bytes.Add(cost)
	sh.mu.Unlock()
	c.puts.Add(1)
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Stats snapshots the counters and occupancy. Occupancy is summed shard
// by shard without a global lock, so a concurrent snapshot is internally
// consistent per shard, not across shards — fine for reporting.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Evictions: c.evictions.Load(),
		Rejected:  c.rejected.Load(),
		Shards:    len(c.shards),
	}
	st.ShardLockWaitNs = make([]int64, len(c.shards))
	for i := range c.shards {
		sh := &c.shards[i]
		sh.rlock()
		st.Entries += len(sh.entries)
		sh.mu.RUnlock()
		st.Bytes += sh.bytes.Load()
		st.MaxBytes += sh.cap
		w := sh.waitNs.Load()
		st.ShardLockWaitNs[i] = w
		st.LockWaitNs += w
	}
	return st
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.rlock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}
