// Canonical-query result cache. Two requests hit the same entry whenever
// their query graphs are isomorphic, labels and weights included
// (canon.GraphKey), and their search parameters match — vertex order in
// the request body is irrelevant. The cache is a mutex-guarded LRU sized
// in entries.

package server

import (
	"container/list"
	"strconv"
	"sync"

	"pis"
	"pis/internal/canon"
	"pis/internal/obs"
)

// Process-wide cache effectiveness counters; the per-instance hit/miss
// fields below keep serving /stats.
var (
	mCacheHits = obs.Default().Counter(
		"pis_result_cache_hits_total",
		"Result-cache lookups answered from the cache.")
	mCacheMisses = obs.Default().Counter(
		"pis_result_cache_misses_total",
		"Result-cache lookups that fell through to the backend.")
)

// searchKey keys a threshold query.
func searchKey(q *pis.Graph, sigma float64) string {
	return "s|" + strconv.FormatFloat(sigma, 'g', -1, 64) + "|" + canon.GraphKey(q)
}

// knnKey keys a kNN query.
func knnKey(q *pis.Graph, k int, maxSigma float64) string {
	return "k|" + strconv.Itoa(k) + "|" + strconv.FormatFloat(maxSigma, 'g', -1, 64) +
		"|" + canon.GraphKey(q)
}

// lruCache is a fixed-capacity LRU keyed by string. capacity <= 0 disables
// it: every Get misses and Put discards.
type lruCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recent; values are *lruEntry
	entries  map[string]*list.Element
	hits     int64
	misses   int64
	// gen counts invalidations. A result computed before a Clear must not
	// be inserted after it (the backend snapshot it came from predates the
	// mutation), so writers capture Gen before running the query and store
	// with PutAt, which drops the entry when the generation moved on.
	gen int64
}

type lruEntry struct {
	key   string
	value any
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Enabled reports whether the cache stores anything at all. Callers use it
// to skip key canonicalization — the expensive part — when caching is off.
func (c *lruCache) Enabled() bool { return c.capacity > 0 }

func (c *lruCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		mCacheHits.Inc()
		return el.Value.(*lruEntry).value, true
	}
	c.misses++
	mCacheMisses.Inc()
	return nil, false
}

// Gen returns the current invalidation generation, captured by writers
// before they run the query whose result they intend to cache.
func (c *lruCache) Gen() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// PutAt stores value only when no Clear has happened since gen was
// captured; a stale result — computed over a pre-mutation snapshot — is
// silently dropped instead of resurrecting answers a mutation already
// invalidated.
func (c *lruCache) PutAt(key string, value any, gen int64) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen != gen {
		return
	}
	c.put(key, value)
}

func (c *lruCache) Put(key string, value any) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, value)
}

// put inserts under c.mu.
func (c *lruCache) put(key string, value any) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry).value = value
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, value: value})
	for c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry).key)
	}
}

// Clear drops every entry and advances the generation (mutation
// invalidation: a database change can alter any cached answer set, and
// in-flight queries started before the change must not re-populate the
// cache). Hit/miss counters are preserved.
func (c *lruCache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = make(map[string]*list.Element)
	c.gen++
}

// Counters reports size and hit statistics.
func (c *lruCache) Counters() (entries int, hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.hits, c.misses
}
