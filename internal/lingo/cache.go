package lingo

import (
	"sync"
	"sync/atomic"
)

// LabelScore is one memoized outcome of NameMatcher.Match: the label-axis
// similarity and its taxonomy kind.
type LabelScore struct {
	Score float64
	Kind  Kind
}

// CacheStats is a point-in-time snapshot of a ScoreCache's counters.
// Hits+Misses counts Get calls; Entries is the current resident pair count;
// Evictions counts entries dropped to honor the size bound.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Entries   int64
	Evictions int64
}

// DefaultScoreCacheSize is the entry bound a zero size selects: under a
// third of the protein pair's 866,712 distinct label pairs, on which a
// cache this size thrashes.
const DefaultScoreCacheSize = 1 << 18

// scoreShards is the shard count; a power of two so the hash folds with a
// mask. 32 shards keep lock contention negligible at the worker counts the
// Engine runs (GOMAXPROCS).
const scoreShards = 32

// evictBatch is how many random entries a full shard drops per insertion,
// amortizing eviction cost instead of clearing whole shards.
const evictBatch = 16

// ScoreCache is a concurrency-safe, sharded, size-bounded memo of
// label-pair scores.
//
// Keys are stored symmetrically (NameMatcher.Match(a,b) == Match(b,a), a
// property the test suite pins), so Get(a, b) and Get(b, a) hit the same
// entry. When a shard reaches its bound, a small batch of random entries
// is dropped (map iteration order) — random replacement, which is within a
// few percent of LRU on the near-uniform reuse pattern of schema
// vocabularies and needs no per-entry bookkeeping.
//
// A cache must only be shared among matchers with identical thesaurus and
// tuning: the key is the label pair alone.
//
// Deprecated: no matcher reads it; a lookup costs more than rescoring.
type ScoreCache struct {
	maxPerShard int
	hits        atomic.Int64
	misses      atomic.Int64
	evictions   atomic.Int64
	shards      [scoreShards]scoreShard
}

type scoreShard struct {
	mu sync.RWMutex
	m  map[scoreKey]LabelScore
}

type scoreKey struct{ a, b string }

// NewScoreCache returns a cache bounded to roughly maxEntries label pairs
// (rounded up to a multiple of the shard count). Sizes <= 0 select
// DefaultScoreCacheSize.
//
// Deprecated: see ScoreCache.
func NewScoreCache(maxEntries int) *ScoreCache {
	if maxEntries <= 0 {
		maxEntries = DefaultScoreCacheSize
	}
	c := &ScoreCache{maxPerShard: (maxEntries + scoreShards - 1) / scoreShards}
	for i := range c.shards {
		c.shards[i].m = make(map[scoreKey]LabelScore)
	}
	return c
}

// key returns the symmetric lookup key and its shard.
func (c *ScoreCache) key(a, b string) (scoreKey, *scoreShard) {
	if a > b {
		a, b = b, a
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(a); i++ {
		h = (h ^ uint64(a[i])) * 1099511628211
	}
	h = (h ^ 0) * 1099511628211 // separator between the two labels
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return scoreKey{a, b}, &c.shards[h&(scoreShards-1)]
}

// Get returns the memoized score of a label pair (in either order) and
// whether it was present, updating the hit/miss counters.
func (c *ScoreCache) Get(a, b string) (LabelScore, bool) {
	k, sh := c.key(a, b)
	sh.mu.RLock()
	s, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return s, ok
}

// Put stores the score of a label pair, evicting random entries when the
// pair's shard is at its bound. Storing the same pair twice is harmless
// (scores are deterministic for a fixed matcher configuration).
func (c *ScoreCache) Put(a, b string, s LabelScore) {
	k, sh := c.key(a, b)
	sh.mu.Lock()
	if _, exists := sh.m[k]; !exists && len(sh.m) >= c.maxPerShard {
		dropped := int64(0)
		for victim := range sh.m {
			delete(sh.m, victim)
			if dropped++; dropped >= evictBatch || len(sh.m) < c.maxPerShard {
				break
			}
		}
		c.evictions.Add(dropped)
	}
	sh.m[k] = s
	sh.mu.Unlock()
}

// Stats returns a snapshot of the cache counters. The entry count is read
// shard by shard and may be momentarily stale under concurrent writers.
func (c *ScoreCache) Stats() CacheStats {
	var entries int64
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		entries += int64(len(sh.m))
		sh.mu.RUnlock()
	}
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Entries:   entries,
		Evictions: c.evictions.Load(),
	}
}
