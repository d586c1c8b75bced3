package qcache

import (
	"sync"

	"repro/internal/obs"
)

// NegCache memoises *negative* ASK verdicts: keys for which a boolean
// existence probe came back false. Positive answers terminate at the first
// row and are cheap to recompute (and are already served by the answer
// cache's singleflight Layer); a negative answer is the expensive case —
// the scan proved exhaustively that nothing matches — and it is also the
// verdict federated mediators ask for most (ground-pattern membership
// probes of federated join steps miss far more often than they hit).
//
// Entries carry the source snapshot's per-shard epoch vector, exactly like
// Layer entries: a lookup whose current vector differs from the stored one
// drops the entry (a write to any shard may have created the missing
// triple, flipping the verdict to true). Because only `false` is stored,
// a hit needs no value — presence with a matching vector IS the answer.
//
// Capacity is bounded: Store beyond cap evicts the oldest entry (FIFO —
// negative probes are rarely re-asked long after their first miss, so
// recency tracking buys little over insertion order).
type NegCache struct {
	mu      sync.Mutex
	entries map[string][]uint64
	order   []string // insertion order, oldest first
	cap     int

	hits   *obs.Counter
	misses *obs.Counter
	stores *obs.Counter
	stale  *obs.Counter
}

// NewNegCache returns a negative-answer cache holding at most capacity
// verdicts (a non-positive capacity falls back to a small default).
func NewNegCache(capacity int) *NegCache {
	if capacity <= 0 {
		capacity = 1024
	}
	c := &NegCache{
		entries: make(map[string][]uint64, capacity),
		cap:     capacity,
		hits:    obs.Default.Counter("qcache_neg_hits_total", "Negative ASK cache hits"),
		misses:  obs.Default.Counter("qcache_neg_misses_total", "Negative ASK cache misses"),
		stores:  obs.Default.Counter("qcache_neg_stores_total", "Negative ASK verdicts stored"),
		stale:   obs.Default.Counter("qcache_neg_stale_drops_total", "Negative ASK entries dropped because a source epoch moved"),
	}
	obs.Default.GaugeFunc("qcache_neg_entries", "Resident negative ASK cache entries", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.entries))
	})
	return c
}

// Hit reports whether key is cached as a negative verdict under the exact
// epoch vector. A resident entry with a different vector is dropped (the
// verdict may have flipped) and reported as a miss.
func (c *NegCache) Hit(key string, epochs []uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	stored, ok := c.entries[key]
	if !ok {
		c.misses.Inc()
		return false
	}
	if !epochsEqual(stored, epochs) {
		delete(c.entries, key)
		c.stale.Inc()
		c.misses.Inc()
		return false
	}
	c.hits.Inc()
	return true
}

// Store records a negative verdict for key at the given epoch vector,
// evicting the oldest entry when the cache is full. The vector is copied —
// callers may reuse their slice.
func (c *NegCache) Store(key string, epochs []uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; !ok {
		for len(c.entries) >= c.cap && len(c.order) > 0 {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, oldest)
		}
		c.order = append(c.order, key)
	}
	c.entries[key] = append([]uint64(nil), epochs...)
	c.stores.Inc()
}

// Len reports the number of resident entries.
func (c *NegCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
