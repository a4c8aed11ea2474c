// Package contentcache is the bounded, content-addressed result store
// behind the placement service: a concurrency-safe LRU keyed on
// arbitrary comparable keys (in the service, content hashes of
// canonical IR plus the machine preset and strategy) with a dual
// entry-count and byte-budget eviction policy.
package contentcache

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
}

// Cache is a concurrency-safe LRU with an entry-count and a byte
// budget. A zero or negative budget disables that bound (but at least
// one bound should be set — an unbounded content cache is the leak
// this package exists to prevent).
type Cache[K comparable, V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recently used
	m          map[K]*list.Element
	hits       int64
	misses     int64
	evictions  int64
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// New returns a cache bounded to maxEntries entries and maxBytes total
// entry size (either may be <= 0 for unbounded).
func New[K comparable, V any](maxEntries int, maxBytes int64) *Cache[K, V] {
	return &Cache[K, V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		m:          make(map[K]*list.Element),
	}
}

// Get returns the cached value for k, marking it most recently used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Put stores v under k with the given accounted size (clamped to a
// minimum of 1 so empty values still count against the entry budget),
// evicting least-recently-used entries until both budgets hold. An
// entry bigger than the whole byte budget is not stored at all.
// Putting an existing key updates it in place.
func (c *Cache[K, V]) Put(k K, v V, size int64) {
	if size < 1 {
		size = 1
	}
	if c.maxBytes > 0 && size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		e := el.Value.(*entry[K, V])
		c.bytes += size - e.size
		e.val, e.size = v, size
		c.ll.MoveToFront(el)
	} else {
		c.m[k] = c.ll.PushFront(&entry[K, V]{key: k, val: v, size: size})
		c.bytes += size
	}
	for (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		back := c.ll.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry[K, V])
		c.ll.Remove(back)
		delete(c.m, e.key)
		c.bytes -= e.size
		c.evictions++
	}
}

// Len returns the number of live entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
	}
}
