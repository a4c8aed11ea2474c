package analysis

import (
	"sync"

	"repro/internal/ir"
)

// Cache is a program-level store of per-function Infos, shared by the
// concurrent stages of the pipeline: the par.Do sharding hands each
// worker the same Cache, and workers obtain (and invalidate) the Info
// of the function they own. For is safe for concurrent use; the Infos
// it returns carry their own locking. Nothing removes an entry, so a
// Cache lives no longer than the program whose functions it keys.
type Cache struct {
	mu sync.Mutex
	m  map[*ir.Func]*Info
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
		info = For(f)
		c.m[f] = info
	}
	return info
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
