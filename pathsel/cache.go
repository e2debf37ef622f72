package pathsel

import "repro/internal/relcache"

// DefaultCacheBytes is a segment-relation cache budget that suits the
// repository's datasets (64 MiB) — what cmd/pathserve passes as
// Config.CacheBytes unless told otherwise.
const DefaultCacheBytes = relcache.DefaultMaxBytes

// CacheStats reports a segment-relation cache's counters: cumulative
// traffic (hits, misses, puts, evictions, rejected oversize entries) and
// current occupancy (entries, bytes, budget).
type CacheStats struct {
	Hits, Misses, Puts, Evictions, Rejected uint64
	Entries                                 int
	Bytes, MaxBytes                         int64
	// Shards is the cache's shard count; LockWaitNs is the cumulative
	// time callers spent blocked on shard locks (zero when uncontended —
	// the read-mostly locking means warm concurrent readers should keep
	// it near zero, which is exactly what it exists to verify).
	Shards     int
	LockWaitNs int64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any traffic.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// CacheStats exposes the estimator's persistent segment cache counters
// (Config.CacheBytes). The second return is false when the estimator has
// no persistent cache.
func (e *Estimator) CacheStats() (CacheStats, bool) {
	if e.cache == nil {
		return CacheStats{}, false
	}
	st := e.cache.Stats()
	return CacheStats{
		Hits: st.Hits, Misses: st.Misses, Puts: st.Puts,
		Evictions: st.Evictions, Rejected: st.Rejected,
		Entries: st.Entries, Bytes: st.Bytes, MaxBytes: st.MaxBytes,
		Shards: st.Shards, LockWaitNs: st.LockWaitNs,
	}, true
}
