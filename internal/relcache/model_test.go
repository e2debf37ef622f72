package relcache

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/bitset"
	"repro/internal/paths"
)

// scanLRU is the reference the victim queue is pinned to: one shard's
// resident set with the victim found the way Put found it before the
// queue — a scan of every entry for the smallest stamp.
type scanLRU struct {
	cap, bytes int64
	entries    map[string]*modelEntry
}

type modelEntry struct{ cost, stamp int64 }

// put mirrors Cache.Put's admission and eviction on the model and
// reports whether the entry was admitted.
func (m *scanLRU) put(key string, cost, stamp int64) bool {
	if cost > m.cap {
		return false
	}
	if old, ok := m.entries[key]; ok {
		m.bytes -= old.cost
		delete(m.entries, key)
	}
	for m.bytes+cost > m.cap && len(m.entries) > 0 {
		victim := ""
		for k, e := range m.entries {
			if victim == "" || e.stamp < m.entries[victim].stamp {
				victim = k
			}
		}
		m.bytes -= m.entries[victim].cost
		delete(m.entries, victim)
	}
	m.entries[key] = &modelEntry{cost, stamp}
	m.bytes += cost
	return true
}

// chain builds a relation of the given number of pairs, one per source.
func chain(n, pairs int) *bitset.HybridRelation {
	edges := make([][2]int, pairs)
	for i := range edges {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	return rel(n, edges...)
}

// TestEvictionMatchesFullScan drives random sequential histories — Puts
// of mixed sizes, some replacing a resident key, some large enough to
// evict several entries and some too large to admit, with Gets between
// them — and after every operation compares each shard's resident keys
// with the full-scan reference. The victim queue must be the scan's
// order exactly, not an approximation of it.
func TestEvictionMatchesFullScan(t *testing.T) {
	const n = 256
	sizes := []int{1, 2, 3, 5, 8, 40, 120, 250}
	rels := make([]*bitset.HybridRelation, len(sizes))
	for i, pairs := range sizes {
		rels[i] = chain(n, pairs)
	}
	for _, shards := range []int{1, 4} {
		for seed := int64(1); seed <= 6; seed++ {
			// A shard holds about twenty small entries or one large one;
			// the 250-pair relation (≈ 4.3 KB) fits none.
			c := New(Options{MaxBytes: int64(shards) * 4096, Shards: shards})
			models := map[*shard]*scanLRU{}
			for i := range c.shards {
				models[&c.shards[i]] = &scanLRU{cap: c.shards[i].cap, entries: map[string]*modelEntry{}}
			}
			rng := rand.New(rand.NewSource(seed))
			var clock int64 // ticks with the cache's own: per admitted Put, per hit
			for op := 0; op < 4000; op++ {
				p := paths.Path{rng.Intn(12), rng.Intn(12)}
				key := AppendPath(nil, p)
				m := models[c.shardFor(key)]
				if rng.Intn(3) == 0 {
					_, _, ok := c.Get(p)
					e, resident := m.entries[string(key)]
					if ok != resident {
						t.Fatalf("shards=%d seed=%d op %d: Get(%v) hit=%v, reference resident=%v", shards, seed, op, p, ok, resident)
					}
					if resident {
						clock++
						e.stamp = clock
					}
				} else {
					r := rels[rng.Intn(len(rels))]
					c.Put(p, rng.Intn(2) == 0, r)
					cost := int64(r.PackedMemSize()) + int64(len(key)) + entryOverhead
					if m.put(string(key), cost, clock+1) {
						clock++
					}
				}
				for i := range c.shards {
					sh := &c.shards[i]
					var got, want []string
					for k := range sh.entries {
						got = append(got, k)
					}
					for k := range models[sh].entries {
						want = append(want, k)
					}
					slices.Sort(got)
					slices.Sort(want)
					if !slices.Equal(got, want) {
						t.Fatalf("shards=%d seed=%d op %d: shard %d holds %q, full scan holds %q", shards, seed, op, i, got, want)
					}
				}
			}
			st := c.Stats()
			if st.Evictions < 100 || st.Rejected == 0 || st.Hits == 0 {
				t.Fatalf("shards=%d seed=%d: history exercised too little: %+v", shards, seed, st)
			}
			if clock != c.clock.Load() {
				t.Fatalf("shards=%d seed=%d: reference clock %d, cache clock %d", shards, seed, clock, c.clock.Load())
			}
			checkInvariants(t, c)
		}
	}
}

// TestAccountedBytesTrackHeap holds the byte budget to what the heap
// says: ten thousand entries of one size, the victim queue cut, and
// Stats.Bytes within 15 % of the growth in live heap — for three-pair
// entries, where bookkeeping (entryOverhead) is most of an entry, as for
// four-hundred-pair ones, where it is noise.
func TestAccountedBytesTrackHeap(t *testing.T) {
	const entries = 10000
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	ps := make([]paths.Path, entries+1)
	for i := range ps {
		ps[i] = paths.Path{i % 22, i / 22 % 22, i / 484} // three labels under 64: a byte each
	}
	for _, pairs := range []int{3, 40, 400} {
		r := chain(512, pairs)
		cost := int64(r.PackedMemSize()) + 3 + entryOverhead
		// Room for exactly the ten thousand (every key here is three bytes),
		// so that one Put more has to cut the queue and evict.
		c := New(Options{MaxBytes: entries*cost + cost/2, Shards: 1})
		before := heap()
		for _, p := range ps {
			c.Put(p, false, r)
		}
		after := heap()
		st := c.Stats()
		if st.Entries != entries || st.Evictions != 1 {
			t.Fatalf("%d pairs: %d entries after %d evictions, want %d after 1", pairs, st.Entries, st.Evictions, entries)
		}
		ratio := float64(st.Bytes) / float64(after-before)
		t.Logf("%d pairs: accounted %d B, heap grew %d B, ratio %.3f", pairs, st.Bytes, after-before, ratio)
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%d pairs: accounted bytes are %.2f of the heap's growth, want within 15 %%", pairs, ratio)
		}
		runtime.KeepAlive(c)
	}
}
