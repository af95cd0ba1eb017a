package server

import (
	"container/list"
	"sync"

	"shapesol/internal/obs"
)

// Cache is a fixed-capacity LRU of settled results keyed by the
// canonical job identity (job.Job.CacheKey of the normalized job). Every
// run here is a pure function of that identity — protocol, engine, seed,
// budget, parameters — so a cached envelope is byte-identical (up to
// WallTime, which is reported as the original run's) to what
// re-simulating would produce, and repeated submissions of a finished
// deterministic job are answered without running it again. The daemon
// caches the job.Result itself; the cluster coordinator caches it next
// to the owner's raw /result bytes.
type Cache[V any] struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	hits   uint64
	misses uint64
}

type cacheItem[V any] struct {
	key string
	val V
}

// NewCache returns an LRU holding up to capacity values. A capacity
// < 1 returns a disabled cache: Get always misses and Put is a no-op.
func NewCache[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		return &Cache[V]{}
	}
	return &Cache[V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// Get returns the cached value under key, marking it most recently
// used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem[V]).val, true
}

// Put stores val under key, evicting the least recently used entry at
// capacity. Re-putting an existing key refreshes its recency (the run is
// deterministic, so the value cannot differ).
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.items == nil {
		return
	}
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheItem[V]{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheItem[V]).key)
	}
}

// Len returns the number of cached values.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Register exposes the cache's hit and miss counters and its size on
// reg, read at scrape time.
func (c *Cache[V]) Register(reg *obs.Registry) {
	reg.CounterFunc("shapesol_cache_hits_total",
		"Result-cache hits (submissions answered without simulation).",
		func() float64 { h, _ := c.Stats(); return float64(h) })
	reg.CounterFunc("shapesol_cache_misses_total",
		"Result-cache misses.",
		func() float64 { _, mi := c.Stats(); return float64(mi) })
	reg.GaugeFunc("shapesol_cache_entries",
		"Entries in the LRU result cache.",
		func() float64 { return float64(c.Len()) })
}

// Stats returns the lifetime hit and miss counts.
func (c *Cache[V]) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
