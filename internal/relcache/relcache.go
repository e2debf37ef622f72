// Package relcache is the workload-level segment-relation cache: a sharded,
// size-bounded LRU of materialized segment relations, stored packed
// (bitset.Packed) and keyed by the canonical encoding of the segment's
// element sequence alone — a label sequence for a concrete path's segment,
// label sets with their repetition bounds for a regular path query's elements
// and fold prefixes — one entry per sequence, its relation forward, as every
// relation of an execution is. The executor (internal/exec) consults it at
// every segment boundary — a query that re-walks a subsequence another query
// already materialized adopts the finished relation instead of recomputing
// it, and a query that repeats adopts its whole answer. An estimator owns at
// most one (pathsel.Config.CacheBytes), shared by every execution, single or
// batched, which is where the amortization pays: real path-query workloads
// repeat label subsequences constantly.
//
// # Immutability and the pools
//
// Execution relations live in per-call pooled buffers that are reused and
// rewritten step after step, so the cache can alias nothing: Put packs the
// relation into a private snapshot (bitset.HybridRelation.Pack), Get returns
// that bitset.Packed, and a consumer copies it out into its own pooled buffer
// (Packed.CopyInto) — a Packed has no other readers. A pooled buffer carries
// one row header per vertex of the graph so that any row can be rewritten in
// place; an entry that is only ever read back whole carries none, and costs
// its pairs. Entries are immutable for their whole lifetime, which is what
// makes a cache hit bit-identical to recomputation: relation construction is
// deterministic and representation (sparse/dense per row, active order) is a
// pure function of the pair set and the promotion limit, so a copied-out
// entry is structurally indistinguishable from a freshly built relation.
//
// # Keys and eviction
//
// A key is the encoding of an element sequence (AppendElem): each element
// a label set under repetition bounds, a plain label the one-label set
// taken exactly once. There is one key space and one table: Get, Put and
// Contains take a label path and are the all-plain-labels case of GetKey,
// PutKey and ContainsKey (AppendPath is AppendElem per label). An
// element's encoding is self-delimiting, so a sequence's key is the
// concatenation of its elements' and nothing else's, and the key of a
// sequence's first elements is the first bytes of its own: the prefix a/b
// of the query a/b/(c|d) probes exactly the entry the concrete segment a/b
// was published under.
//
// Keys are position-independent: the segment p[2:4) of one query and
// p[0:2) of another share an entry when their label sequences match. They
// are direction-independent too, because every relation is forward: a
// zig-zag leaf that grows leftward prepends a label by joining that
// label's CSR rows with the segment so far, so it builds — and publishes
// — the same relation a rightward leaf would, and one entry serves
// forward and backward plans alike.
//
// Recency is a per-entry stamp from a cache-wide monotonic clock, taken
// under the entry's shard lock — the read side by Get, which refreshes it
// with a single atomic store, the write side by Put — and eviction (in
// Put) removes the smallest-stamp entry until the new one fits. Stamps
// are unique and monotonic, so eviction order is exactly
// least-recently-used and fully deterministic for a sequential history —
// the stamp scheme trades the linked-list bookkeeping (which forced Get
// to take an exclusive lock) for an order that only differs under racing
// Gets, where "recency order" was never well-defined anyway.
//
// Finding that entry is not a scan. A shard keeps a victim queue: when
// an eviction finds it empty, every resident entry is listed with its
// stamp and sorted — the cut — and evictions, in this Put and later
// ones, pop from its head. A popped candidate is the victim if its key
// still maps to an entry with that very stamp; otherwise the entry was
// evicted, replaced or read since the cut, and the candidate is dropped.
// Every stamp on the shard's entries issued after the cut is newer than
// every stamp in it (both are taken under the shard's lock), so the
// first candidate that is still valid is the entry a full scan would
// have picked, and when none is left every resident entry is newer than
// the cut and the next one is made. A cut is O(entries · log entries)
// and each of its candidates is popped once, so an eviction is amortised
// O(log entries) where the scan was O(entries) under the write lock.
//
// Cost is accounted in bytes — the packed form's footprint,
// HybridRelation.PackedMemSize (4 per sparse pair, ⌈n/64⌉ words per
// dense row, 12 per source: nothing per vertex), the key, and
// entryOverhead — so the bound is a real memory budget, not an
// entry count, for three-pair entries as for megabyte ones. Relations
// larger than a shard's whole budget are rejected outright rather than
// flushing the shard.
//
// # Locking
//
// Each shard has one RWMutex: Get and Contains take the read side — a
// warm workload's concurrent readers share every shard — and only Put
// takes the write side. Lock acquisitions try the uncontended fast path
// first and fall back to a timed wait whose duration feeds per-shard
// lock-wait tallies (summed as Stats.LockWaitNs), so shard
// contention is observable in production stats, not just in mutex
// profiles.
//
// A cache is bound to one graph: keys carry no graph identity, so sharing
// a cache across graphs returns wrong relations. Its owner (a
// pathsel.Estimator) must create one cache per graph.
package relcache

import (
	"cmp"
	"encoding/binary"
	"slices"
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
	// DefaultMaxBytes). Entry cost is the packed relation's exact
	// footprint (bitset.HybridRelation.PackedMemSize) plus key and
	// bookkeeping overhead.
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
}

// entry is one cached relation. used is the recency stamp — the cache
// clock's value at the entry's last Get (or its insertion) — written with
// a plain atomic store so readers holding only the shard's read lock can
// refresh it.
type entry struct {
	key  string
	rel  *bitset.Packed
	cost int64
	used atomic.Int64
}

// shard is one independently locked slice of the cache. bytes is written
// only under mu's write side but read lock-free by Stats, hence atomic.
// victims[next:] is the victim queue (package doc, "Keys and eviction"),
// touched only under the write side.
type shard struct {
	mu      sync.RWMutex
	entries map[string]*entry
	victims []candidate
	next    int
	bytes   atomic.Int64
	cap     int64
	waitNs  atomic.Int64
}

// candidate is one slot of a victim queue: an entry's key and the stamp
// it carried when the queue was cut. By key, not by pointer, so that the
// queue never keeps an evicted or replaced relation alive.
type candidate struct {
	key   string
	stamp int64
}

// victim returns the shard's least recently used entry, of which there
// must be one: the first queued candidate whose entry is still resident
// and unread since the cut, cutting a new queue from the map when the
// old one runs out. Stamps do not move under the write lock, so the head
// of a fresh cut is always valid.
func (sh *shard) victim() *entry {
	for {
		for sh.next < len(sh.victims) {
			cand := sh.victims[sh.next]
			sh.next++
			if e, ok := sh.entries[cand.key]; ok && e.used.Load() == cand.stamp {
				return e
			}
		}
		sh.victims, sh.next = sh.victims[:0], 0
		for _, e := range sh.entries {
			sh.victims = append(sh.victims, candidate{e.key, e.used.Load()})
		}
		slices.SortFunc(sh.victims, func(a, b candidate) int { return cmp.Compare(a.stamp, b.stamp) })
	}
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

// keyInline is the key buffer Get, Put and Contains keep on their stack:
// 16 labels at up to 4 varint bytes each (label ids below 2^27), so probing
// the cache for any census-bounded segment allocates nothing. Longer keys
// — a wildcard over a few hundred labels — spill to the heap and stay
// correct.
const keyInline = 64

// AppendElem appends the canonical encoding of one query element — a
// sorted, deduplicated label set repeated between minRep and maxRep times
// — to key, and a cache key is the concatenation of its elements'
// encodings. A plain label (one label, exactly once) is uvarint(l<<1);
// any other element is uvarint(len(labels)<<1|1), the labels, minRep,
// maxRep, each a uvarint. The first varint's low bit says which form
// follows and the set's length how far it runs, so an element's encoding
// is self-delimiting and a sequence's key is injective: equal keys are
// equal element sequences, and one key is a byte prefix of another only
// where its sequence is an element prefix of the other's. That is what
// lets a fold prefix share the entry of the query that is exactly that
// prefix — a/b of a/b/(c|d) is the segment a/b's key.
func AppendElem(key []byte, labels []int, minRep, maxRep int) []byte {
	if len(labels) == 1 && minRep == 1 && maxRep == 1 {
		return binary.AppendUvarint(key, uint64(labels[0])<<1)
	}
	key = binary.AppendUvarint(key, uint64(len(labels))<<1|1)
	for _, l := range labels {
		key = binary.AppendUvarint(key, uint64(l))
	}
	key = binary.AppendUvarint(key, uint64(minRep))
	return binary.AppendUvarint(key, uint64(maxRep))
}

// AppendPath appends the key of a label sequence: each label as the plain
// element it is. Canonical means position-independent — equal label
// subsequences key the same entry wherever they sit in their queries and
// whichever direction a leaf grew them in. Lookups index the shard map with
// string(key) in place, which builds no string; only Put keeps an owned
// one.
func AppendPath(key []byte, p paths.Path) []byte {
	for i := range p {
		key = AppendElem(key, p[i:i+1], 1, 1)
	}
	return key
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

// Get returns the cached relation for the segment's label sequence, or
// (nil, false, false): GetKey under the sequence's key, encoded on the
// stack. Every entry is forward, so reversed is always false; the result
// keeps its place for the benchmark module, which is frozen.
func (c *Cache) Get(p paths.Path) (rel *bitset.Packed, reversed, ok bool) {
	var buf [keyInline]byte
	rel, ok = c.GetKey(AppendPath(buf[:0], p))
	return rel, false, ok
}

// GetKey returns the relation cached under an element sequence's key
// (AppendElem). The returned snapshot is shared and immutable: the caller
// copies it out (CopyInto) into a relation of its own, and must verify it
// matches the caller's representation regime (Universe, SparseMax) before
// adopting it.
//
// GetKey takes only the shard's read lock — a hit refreshes recency with
// an atomic stamp, not a list splice — so concurrent warm readers never
// serialize on each other, only on a simultaneous Put to the same shard.
// The key is read, never kept.
func (c *Cache) GetKey(key []byte) (rel *bitset.Packed, ok bool) {
	sh := c.shardFor(key)
	sh.rlock()
	e, ok := sh.entries[string(key)]
	if ok {
		e.used.Store(c.clock.Add(1))
		rel = e.rel
	}
	sh.mu.RUnlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return rel, true
}

// Contains reports whether the segment is cached, without touching the
// recency stamps or the hit/miss
// counters — the planner's cost probe (exec.Planner.Cached) must not
// perturb recency while enumerating O(k²) candidate segments.
func (c *Cache) Contains(p paths.Path) bool {
	var buf [keyInline]byte
	return c.ContainsKey(AppendPath(buf[:0], p))
}

// ContainsKey is Contains for an element sequence's key.
func (c *Cache) ContainsKey(key []byte) bool {
	sh := c.shardFor(key)
	sh.rlock()
	_, ok := sh.entries[string(key)]
	sh.mu.RUnlock()
	return ok
}

// entryOverhead is an entry's bookkeeping bytes beyond the packed
// relation and the key's bytes, so that the budget holds for entries of a
// few pairs, where it is most of the cost: the entry struct (40: key
// header 16, relation pointer 8, cost 8, stamp 8), its map slot (a
// 16-byte key header, an 8-byte pointer and a control byte at a mean load
// near two thirds: ≈ 40), its victim-queue slot (24) and what the
// allocator's size classes round the entry's seven small objects up by
// (≈ 24 in all, the entry's own 8 among them). TestAccountedBytesTrackHeap
// holds Stats.Bytes to the heap's own growth.
const entryOverhead = 128

// Put stores the segment's relation: PutKey under the label sequence's
// key. Every entry is forward, so a reversed relation is a caller bug and
// panics; the flag keeps its place for the benchmark module, which is
// frozen.
func (c *Cache) Put(p paths.Path, reversed bool, rel *bitset.HybridRelation) {
	if reversed {
		panic("relcache: a reversed relation: every entry is forward")
	}
	var buf [keyInline]byte
	c.PutKey(AppendPath(buf[:0], p), rel)
}

// PutKey stores a relation under an element sequence's key (AppendElem),
// packed (bitset.HybridRelation.Pack) so the cache entry stays valid while
// the caller's pooled buffers are reused and costs its content, not its
// universe. An existing entry under the same key is replaced — the canonical
// key keeps exactly one relation per sequence, and replacement (rather than
// skip) lets a fresh-regime relation oust a stale one that adoption guards
// were rejecting. Relations whose cost exceeds one shard's whole budget are
// rejected — caching them would flush everything else for an entry that
// cannot amortize — and the cost is priced from the source relation
// (PackedMemSize) before any copying, so an oversized relation published on
// every query of a workload costs a size computation, not a discarded
// multi-megabyte copy each time. The relcache.put fault site models the copy
// failing to allocate: a triggered injection turns the call into a counted
// rejection, the same graceful degradation as an oversized entry (service
// continues, the segment just stays uncached).
//
// Over budget, PutKey evicts least recently used entries from the shard's
// victim queue (shard.victim) until the new one fits. The key's bytes are
// copied; the caller's buffer is its own again on return.
func (c *Cache) PutKey(key []byte, rel *bitset.HybridRelation) {
	sh := c.shardFor(key)
	k := string(key)
	cost := int64(rel.PackedMemSize()) + int64(len(k)) + entryOverhead
	var packed *bitset.Packed
	if cost <= sh.cap && !faultinject.Fail("relcache.put") {
		packed = rel.Pack()
	}
	if packed == nil {
		c.rejected.Add(1)
		return
	}
	e := &entry{key: k, rel: packed, cost: cost}
	sh.lock()
	e.used.Store(c.clock.Add(1))
	if old, ok := sh.entries[k]; ok {
		sh.bytes.Add(-old.cost)
		delete(sh.entries, k)
	}
	var evicted uint64
	for sh.bytes.Load()+cost > sh.cap && len(sh.entries) > 0 {
		victim := sh.victim()
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
	for i := range c.shards {
		sh := &c.shards[i]
		sh.rlock()
		st.Entries += len(sh.entries)
		sh.mu.RUnlock()
		st.Bytes += sh.bytes.Load()
		st.MaxBytes += sh.cap
		st.LockWaitNs += sh.waitNs.Load()
	}
	return st
}
