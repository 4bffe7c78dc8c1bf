package sta

import "math"

// maxCachedNets bounds net-cache memory. Real designs sit far below this
// (one entry per distinct driven net); concurrent move trials add a
// handful of dirty-net entries on top. On overflow the whole map is
// dropped — correctness never depends on retention.
const maxCachedNets = 1 << 16

// FlushNetCache drops every cached per-net electrical view — the
// timer-owned NetCache and the attached SharedCache, if any. Flushing is
// never needed for correctness (lookups key by the topology hash); it
// exists to bound memory in long-lived timers and to time cache-cold
// paths in benchmarks.
func (tm *Timer) FlushNetCache() {
	tm.cacheMu.Lock()
	fc := tm.fcache
	tm.cacheMu.Unlock()
	if fc != nil {
		fc.flush()
	}
	if sc := tm.SharedCache; sc != nil {
		sc.flush()
	}
}

// fnv64 is inlined FNV-1a, avoiding hash/fnv's per-net allocations.
type fnv64 uint64

func newFNV() fnv64 { return 14695981039346656037 }

func (h *fnv64) byte(b byte) { *h = (*h ^ fnv64(b)) * 1099511628211 }

func (h *fnv64) u64(v uint64) {
	for i := 0; i < 64; i += 8 {
		h.byte(byte(v >> i))
	}
}

func (h *fnv64) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *fnv64) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0x1f) // terminator so "ab","c" ≠ "a","bc"
}

// CacheStats is a point-in-time reading of the net cache's traffic counters
// since the timer was built (they survive cache resets and flushes).
type CacheStats struct {
	Hits      int64 // lookups served from a cached view
	Misses    int64 // lookups that built the net view
	Evictions int64 // whole-map drops on overflow (maxCachedNets)
}

// HitRate returns Hits/(Hits+Misses), or 0 with no traffic.
func (s CacheStats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// CacheStats reads the net-cache traffic counters. Counts are exact but
// schedule-dependent under concurrent move trials (workers race to build
// the same dirty nets), so they belong in metrics snapshots, not in traces
// compared across worker counts.
func (tm *Timer) CacheStats() CacheStats {
	return CacheStats{
		Hits:      tm.cacheHits.Load(),
		Misses:    tm.cacheMisses.Load(),
		Evictions: tm.cacheEvicts.Load(),
	}
}
