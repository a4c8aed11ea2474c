package analysis

import (
	"sync"

	"repro/internal/ir"
)

// Cache is a program-level store of per-function Infos, shared by the
// concurrent stages of the pipeline: the par.Do sharding hands each
// worker the same Cache, and workers obtain (and invalidate) the Info
// of the function they own. For is safe for concurrent use; the Infos
// it returns carry their own locking.
type Cache struct {
	mu           sync.Mutex
	m            map[*ir.Func]*Info
	hits, misses int
	drops        int
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{m: make(map[*ir.Func]*Info)} }

// For returns the memoized Info for f, creating it on first use. A nil
// Cache is valid and degrades to an unshared fresh Info per call, so
// optional-cache plumbing needs no branching at call sites.
func (c *Cache) For(f *ir.Func) *Info {
	if c == nil {
		return For(f)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	info := c.m[f]
	if info == nil {
		c.misses++
		info = For(f)
		c.m[f] = info
	} else {
		c.hits++
	}
	return info
}

// Stats returns how many For lookups found an existing Info (hits)
// versus created one (misses). Tools that share one cache across
// repeated runs report these to show the sharing actually happened.
func (c *Cache) Stats() (hits, misses int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Counts sums the cumulative build counters of every memoized Info.
// With F functions in the cache and no invalidations, the per-function
// counters (Liveness, Dom, Loops, PST, Seed) are each at most F no
// matter how many strategies, cost models, or machine descriptions
// consumed the cache — the multi-machine sweep records this as its
// proof of no per-machine rebuilds. Busy is per (function, register),
// so it may legitimately exceed F; the sharing checks exclude it.
func (c *Cache) Counts() Counts {
	if c == nil {
		return Counts{}
	}
	c.mu.Lock()
	infos := make([]*Info, 0, len(c.m))
	for _, info := range c.m {
		infos = append(infos, info)
	}
	c.mu.Unlock()
	var total Counts
	for _, info := range infos {
		n := info.Counts()
		total.Liveness += n.Liveness
		total.Dom += n.Dom
		total.Loops += n.Loops
		total.PST += n.PST
		total.Seed += n.Seed
		total.Busy += n.Busy
		total.SplitDom += n.SplitDom
		total.DeltaPatched += n.DeltaPatched
		total.DeltaFull += n.DeltaFull
	}
	return total
}

// Len returns the number of memoized per-function Infos.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Drop removes f's entry from the cache entirely, so f (and the
// analyses its Info pins) can be garbage collected. Invalidate marks
// results stale but keeps the map entry alive — the right call between
// pipeline stages over the same function, and a leak in a long-lived
// process that keeps seeing new functions. Eviction policies and
// program teardown use Drop; Drops counts the removals.
func (c *Cache) Drop(f *ir.Func) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[f]; ok {
		delete(c.m, f)
		c.drops++
	}
}

// Drops returns how many entries Drop has removed.
func (c *Cache) Drops() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.drops
}

// Invalidate drops the memoized results for f, if any.
func (c *Cache) Invalidate(f *ir.Func) {
	if c == nil {
		return
	}
	c.mu.Lock()
	info := c.m[f]
	c.mu.Unlock()
	if info != nil {
		info.Invalidate()
	}
}
