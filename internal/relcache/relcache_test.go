package relcache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bitset"
	"repro/internal/faultinject"
	"repro/internal/paths"
)

// rel builds a small relation over n vertices with the given edges.
func rel(n int, edges ...[2]int) *bitset.HybridRelation {
	bysrc := map[int][]int32{}
	for _, e := range edges {
		bysrc[e[0]] = append(bysrc[e[0]], int32(e[1]))
	}
	op := bitset.CSROperand{N: n, Offsets: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		op.Offsets[v+1] = op.Offsets[v]
		seen := map[int32]bool{}
		for _, t := range bysrc[v] {
			if seen[t] {
				continue
			}
			seen[t] = true
		}
		var ts []int32
		for t := range seen {
			ts = append(ts, t)
		}
		for i := range ts { // insertion sort: tiny lists
			for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
				ts[j], ts[j-1] = ts[j-1], ts[j]
			}
		}
		for _, t := range ts {
			op.Targets = append(op.Targets, t)
			op.Offsets[v+1]++
		}
	}
	return bitset.HybridFromCSR(op, 0)
}

// unpack copies a Get result out into a fresh relation, the only way a
// packed entry is read.
func unpack(p *bitset.Packed) *bitset.HybridRelation {
	dst := bitset.NewHybrid(p.Universe(), 0)
	p.CopyInto(dst)
	return dst
}

func TestPutGetRoundTrip(t *testing.T) {
	c := New(Options{})
	p := paths.Path{1, 2, 3}
	r := rel(16, [2]int{0, 1}, [2]int{3, 7})
	if _, _, ok := c.Get(p); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put(p, false, r)
	got, reversed, ok := c.Get(p)
	if !ok || reversed || !unpack(got).Equal(r) {
		t.Fatal("round trip lost the relation")
	}
	// Different label sequence, different entry.
	if _, _, ok := c.Get(paths.Path{1, 2, 4}); ok {
		t.Fatal("wrong labels hit")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPathFormsAreForward pins what the path-typed forms keep of the
// orientation they used to carry: Get reports every entry forward, and Put
// refuses a reversed relation, storing nothing.
func TestPathFormsAreForward(t *testing.T) {
	c := New(Options{Shards: 1})
	p := paths.Path{1, 2}
	c.Put(p, false, rel(16, [2]int{0, 1}, [2]int{3, 7}))
	if _, reversed, ok := c.Get(p); !ok || reversed {
		t.Fatalf("lookup after a put: ok=%v reversed=%v", ok, reversed)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a reversed Put did not panic")
			}
		}()
		c.Put(paths.Path{2, 1}, true, rel(16, [2]int{1, 0}))
	}()
	if st := c.Stats(); st.Entries != 1 || st.Puts != 1 {
		t.Fatalf("a refused Put left %+v", st)
	}
}

// TestPutFaultInjection drives the relcache.put fault site: a simulated
// failure to allocate the packed copy must degrade to a counted rejection — no
// entry, no corruption, service continues — and stores succeed again
// once the fault clears.
func TestPutFaultInjection(t *testing.T) {
	faultinject.Install(faultinject.NewInjector(faultinject.Rule{
		Site: "relcache.put", Action: faultinject.ActFail,
	}))
	defer faultinject.Uninstall()
	c := New(Options{Shards: 1})
	p := paths.Path{3, 4}
	c.Put(p, false, rel(16, [2]int{0, 1}))
	if c.Len() != 0 {
		t.Fatal("entry stored despite injected allocation failure")
	}
	st := c.Stats()
	if st.Rejected != 1 || st.Puts != 0 {
		t.Fatalf("stats = %+v, want 1 rejection and 0 puts", st)
	}
	faultinject.Uninstall()
	c.Put(p, false, rel(16, [2]int{0, 1}))
	if _, _, ok := c.Get(p); !ok {
		t.Fatal("store failed after fault cleared")
	}
}

func TestKeyCanonicalization(t *testing.T) {
	// Equal label subsequences share an entry regardless of the slice they
	// came from, and multi-byte labels never collide with label pairs.
	c := New(Options{})
	long := paths.Path{9, 1, 2, 9}
	c.Put(long[1:3], false, rel(8, [2]int{0, 1}))
	if _, _, ok := c.Get(paths.Path{1, 2}); !ok {
		t.Fatal("same labels from a different slice missed")
	}
	// Varint encoding is self-delimiting: {300} must not alias {44, 2} or
	// any other pair that would collide under naive byte concatenation.
	c.Put(paths.Path{300}, false, rel(8, [2]int{1, 2}))
	if _, _, ok := c.Get(paths.Path{172, 2}); ok {
		t.Fatal("multi-byte label aliased a label pair")
	}
}

func TestPutClonesAndGetIsImmutable(t *testing.T) {
	c := New(Options{})
	p := paths.Path{4, 5}
	r := rel(16, [2]int{2, 3}, [2]int{2, 4})
	c.Put(p, false, r)
	r.Reset() // caller's pooled buffer is reused...
	got, _, ok := c.Get(p)
	if !ok || got.Pairs() != 2 || !unpack(got).Contains(2, 3) {
		t.Fatal("cache entry aliased the caller's buffer")
	}
}

func TestLRUEvictionOrderAndAccounting(t *testing.T) {
	// Single shard so eviction order is observable. The budget is sized
	// from an entry's accounted cost — the packed relation, a two-byte key
	// and the overhead — to hold three of the identical entries and half
	// of a fourth, so the fourth Put must evict.
	cost := int64(rel(64, [2]int{0, 1}).PackedMemSize()) + 2 + entryOverhead
	c := New(Options{MaxBytes: 3*cost + cost/2, Shards: 1})
	ps := []paths.Path{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	for _, p := range ps[:3] {
		c.Put(p, false, rel(64, [2]int{0, 1}))
	}
	if got := c.Len(); got != 3 {
		t.Fatalf("expected 3 entries, have %d (budget %d, entry %d)", got, 3*cost+cost/2, cost)
	}
	// Touch {1,1} so {2,2} becomes the LRU victim.
	if _, _, ok := c.Get(ps[0]); !ok {
		t.Fatal("entry 0 missing")
	}
	c.Put(ps[3], false, rel(64, [2]int{0, 1}))
	if _, _, ok := c.Get(ps[1]); ok {
		t.Fatal("LRU victim {2,2} survived")
	}
	for _, p := range []paths.Path{ps[0], ps[2], ps[3]} {
		if _, _, ok := c.Get(p); !ok {
			t.Fatalf("entry %v wrongly evicted", p)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("%d evictions counted, want exactly the one victim", st.Evictions)
	}
	if st.Bytes != 3*cost {
		t.Fatalf("accounted %d bytes for three entries of %d", st.Bytes, cost)
	}
	if st.Bytes > st.MaxBytes {
		t.Fatalf("accounting over budget: %d > %d", st.Bytes, st.MaxBytes)
	}
}

// TestOversizeRejected exists to reject: a shard that holds a one-pair
// entry refuses a sixty-pair one (≈ 1.2 KB packed) outright, before
// evicting anything for it.
func TestOversizeRejected(t *testing.T) {
	small := New(Options{MaxBytes: 512, Shards: 1})
	small.Put(paths.Path{3, 4}, false, rel(64, [2]int{0, 1}))
	var edges [][2]int
	for i := 0; i < 60; i++ {
		edges = append(edges, [2]int{i, (i + 1) % 64})
	}
	small.Put(paths.Path{1, 2}, false, rel(64, edges...))
	if small.Len() != 1 || !small.Contains(paths.Path{3, 4}) {
		t.Fatal("oversize entry inserted, or the resident one flushed for it")
	}
	st := small.Stats()
	if st.Rejected != 1 || st.Puts != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestOverwriteReplaces(t *testing.T) {
	c := New(Options{Shards: 1})
	p := paths.Path{7, 8}
	c.Put(p, false, rel(16, [2]int{0, 1}))
	c.Put(p, false, rel(16, [2]int{0, 1}, [2]int{0, 2}))
	got, _, ok := c.Get(p)
	if !ok || got.Pairs() != 2 {
		t.Fatal("overwrite did not replace the entry")
	}
	if c.Len() != 1 {
		t.Fatalf("duplicate entries after overwrite: %d", c.Len())
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := New(Options{})
	p := paths.Path{1}
	if c.Contains(p) {
		t.Fatal("empty cache contains")
	}
	c.Put(p, false, rel(8, [2]int{0, 1}))
	if !c.Contains(p) {
		t.Fatal("Contains missed the entry")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Contains touched hit/miss counters: %+v", st)
	}
}

// TestConcurrentAccess races Puts and Gets over 64 keys on shards that
// hold about seven of their sixteen each, so the victim queue is cut,
// consumed and invalidated by concurrent readers throughout.
func TestConcurrentAccess(t *testing.T) {
	c := New(Options{MaxBytes: 8 << 10, Shards: 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				p := paths.Path{rng.Intn(8), rng.Intn(8)}
				if rng.Intn(2) == 0 {
					c.Put(p, false, rel(32, [2]int{rng.Intn(32), rng.Intn(32)}))
				} else if got, _, ok := c.Get(p); ok && got.Universe() != 32 {
					t.Error("corrupt entry")
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("over budget after concurrent load: %d > %d", st.Bytes, st.MaxBytes)
	}
	if st.Evictions == 0 {
		t.Fatalf("nothing was evicted: %+v", st)
	}
	checkInvariants(t, c)
}

// checkInvariants walks every shard and verifies the byte accounting and
// recency stamps agree with the map: accounted bytes equal the summed
// entry costs and stay under the shard cap, every entry's map key matches
// its recorded key, no stamp is ahead of the cache clock (stamps are
// unique ticks of it), and what is left of the victim queue is in stamp
// order.
func checkInvariants(t *testing.T, c *Cache) {
	t.Helper()
	clock := c.clock.Load()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		var bytes int64
		seen := map[int64]string{}
		for k, e := range sh.entries {
			if e.key != k {
				sh.mu.Unlock()
				t.Fatalf("shard %d: entry %q stored under key %q", i, e.key, k)
			}
			bytes += e.cost
			u := e.used.Load()
			if u <= 0 || u > clock {
				sh.mu.Unlock()
				t.Fatalf("shard %d: entry %q stamp %d outside (0, clock=%d]", i, k, u, clock)
			}
			if prev, dup := seen[u]; dup {
				sh.mu.Unlock()
				t.Fatalf("shard %d: entries %q and %q share stamp %d", i, prev, k, u)
			}
			seen[u] = k
		}
		if bytes != sh.bytes.Load() {
			sh.mu.Unlock()
			t.Fatalf("shard %d: map holds %d bytes, accounted %d", i, bytes, sh.bytes.Load())
		}
		if sh.next > len(sh.victims) {
			sh.mu.Unlock()
			t.Fatalf("shard %d: victim queue head %d past its %d slots", i, sh.next, len(sh.victims))
		}
		for j := sh.next + 1; j < len(sh.victims); j++ {
			if sh.victims[j-1].stamp >= sh.victims[j].stamp {
				sh.mu.Unlock()
				t.Fatalf("shard %d: victim queue out of stamp order at slot %d", i, j)
			}
		}
		if sh.bytes.Load() > sh.cap {
			sh.mu.Unlock()
			t.Fatalf("shard %d: %d bytes over cap %d", i, sh.bytes.Load(), sh.cap)
		}
		sh.mu.Unlock()
	}
}

// FuzzCacheInvariants drives a random Put/Get sequence and checks the
// victim queue, map, and byte accounting stay mutually consistent and
// under budget at every step. An entry here costs ≈ 270 bytes: the first
// seed's shard holds 15 of the 25 keys and evicts, the second's four
// shards of 150 bytes reject every Put.
func FuzzCacheInvariants(f *testing.F) {
	f.Add(int64(1), uint16(4096), uint8(1), []byte{0, 1, 2, 3})
	f.Add(int64(7), uint16(600), uint8(3), []byte{9, 9, 9, 1, 250})
	f.Fuzz(func(t *testing.T, seed int64, budget uint16, shards uint8, ops []byte) {
		c := New(Options{MaxBytes: int64(budget), Shards: int(shards)})
		rng := rand.New(rand.NewSource(seed))
		for _, op := range ops {
			p := paths.Path{int(op) % 5, int(op) / 5 % 5}
			switch op % 3 {
			case 0:
				c.Put(p, false, rel(16+rng.Intn(32), [2]int{rng.Intn(16), rng.Intn(16)}))
			case 1:
				c.Get(p)
			default:
				c.Contains(p)
			}
			checkInvariants(t, c)
		}
		st := c.Stats()
		if st.Entries != c.Len() {
			t.Fatalf("Stats.Entries %d != Len %d", st.Entries, c.Len())
		}
	})
}

// TestGetStampsRecency pins the clock-LRU contract at the stamp level:
// a Get refreshes its entry's stamp to a fresh clock tick, so the entry
// outlives untouched neighbors at the next eviction.
func TestGetStampsRecency(t *testing.T) {
	c := New(Options{Shards: 1})
	a, b := paths.Path{1, 1}, paths.Path{2, 2}
	c.Put(a, false, rel(16, [2]int{0, 1}))
	c.Put(b, false, rel(16, [2]int{0, 1}))
	sh := &c.shards[0]
	key := func(p paths.Path) string { return string(AppendPath(nil, p)) }
	ua0 := sh.entries[key(a)].used.Load()
	if _, _, ok := c.Get(a); !ok {
		t.Fatal("entry missing")
	}
	ua1 := sh.entries[key(a)].used.Load()
	ub := sh.entries[key(b)].used.Load()
	if ua1 <= ua0 || ua1 <= ub {
		t.Fatalf("Get did not refresh recency: a %d→%d, b %d", ua0, ua1, ub)
	}
	if got := c.clock.Load(); ua1 != got {
		t.Fatalf("refreshed stamp %d is not the latest clock tick %d", ua1, got)
	}
}

// TestLockWaitTallies verifies contended acquisitions are measured: a
// reader blocked behind a held write lock must add to the shard's
// lock-wait tally, and an uncontended history must not.
func TestLockWaitTallies(t *testing.T) {
	c := New(Options{Shards: 1})
	p := paths.Path{1, 2}
	c.Put(p, false, rel(16, [2]int{0, 1}))
	c.Get(p)
	st := c.Stats()
	if st.Shards != 1 || len(st.ShardLockWaitNs) != 1 {
		t.Fatalf("shard accounting: %+v", st)
	}
	if st.LockWaitNs != 0 {
		t.Fatalf("uncontended workload tallied %dns of lock wait", st.LockWaitNs)
	}
	// The reader blocks only if it reaches the lock while the writer still
	// holds it, and no hold time guarantees that on a loaded scheduler (a
	// late reader's TryRLock succeeds and nothing is tallied). So repeat
	// the round, holding twice as long each time, until a wait is tallied.
	sh := &c.shards[0]
	const rounds = 10
	for round, hold := 1, 2*time.Millisecond; ; round, hold = round+1, 2*hold {
		sh.mu.Lock()
		started, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			close(started)
			c.Get(p) // blocks: TryRLock fails, timed RLock waits
		}()
		<-started
		time.Sleep(hold)
		sh.mu.Unlock()
		<-done
		st = c.Stats()
		if st.ShardLockWaitNs[0] != st.LockWaitNs {
			t.Fatalf("aggregate %d != single shard tally %d", st.LockWaitNs, st.ShardLockWaitNs[0])
		}
		if st.LockWaitNs > 0 {
			break
		}
		if round == rounds {
			t.Fatalf("blocked reader tallied no lock wait in %d rounds", rounds)
		}
	}
}

func TestStatsString(t *testing.T) {
	// Smoke: Stats fields render; guards against accidental field removal.
	c := New(Options{MaxBytes: 1 << 16, Shards: 2})
	c.Put(paths.Path{1, 2}, false, rel(16, [2]int{0, 1}))
	c.Get(paths.Path{1, 2})
	s := fmt.Sprintf("%+v", c.Stats())
	if s == "" {
		t.Fatal("empty stats")
	}
}

// TestLookupsAllocateNothing pins the probe path the planner's
// cache-aware DP hammers — O(k²) Contains per plan, a Get per executed
// segment: for paths of up to 16 labels the key is encoded on the stack
// and the shard map indexed in place, hit or miss.
func TestLookupsAllocateNothing(t *testing.T) {
	c := New(Options{})
	hit := make(paths.Path, 16)
	for i := range hit {
		hit[i] = 200 + i // two varint bytes per label
	}
	miss := paths.Path{3, 1, 4, 1, 5}
	c.Put(hit, false, rel(16, [2]int{0, 1}))
	for name, fn := range map[string]func(){
		"Get hit":       func() { c.Get(hit) },
		"Get miss":      func() { c.Get(miss) },
		"Contains hit":  func() { c.Contains(hit) },
		"Contains miss": func() { c.Contains(miss) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.0f times, want 0", name, allocs)
		}
	}
	if _, _, ok := c.Get(hit); !ok || c.Contains(miss) {
		t.Fatal("lookups answer wrongly")
	}
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
