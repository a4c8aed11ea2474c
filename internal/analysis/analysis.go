// Package analysis is the shared per-function analysis layer of the
// placement pipeline. Every consumer of liveness, natural loops, the
// program structure tree, or the shrink-wrap seed sets — placement
// (internal/strategy, which hands them down to internal/shrinkwrap and
// internal/core), tiered re-placement (internal/tier), the facade
// (spillopt), the evaluation harness (internal/bench), and the
// differential oracle (internal/irgen) — obtains them through an Info
// handle instead of rebuilding them, so comparing all five strategies
// from one allocation builds each analysis at most once per function.
//
// Contract:
//
//   - Accessors are lazily memoized and safe for concurrent use on one
//     Info. Results are shared: callers must treat them as read-only.
//   - Results describe the function as it was when the accessor first
//     ran. Any pass that mutates the function (core.Apply, register
//     allocation) must call Invalidate before the next read, and must
//     not run concurrently with readers of the same function — the
//     same per-function isolation the parallel pipeline already
//     guarantees.
//   - A new analysis joins the layer by adding one memoized accessor
//     here and a line to Invalidate; every consumer then shares it.
package analysis

import (
	"sync"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/pst"
	"repro/internal/shrinkwrap"
)

// Counts reports how many times each underlying analysis has been
// built over the Info's lifetime (cumulative across invalidations).
// The tests use it to pin the "at most once per function" guarantee.
//
// SplitDom stays 0: it counted the dominator and postdominator tree
// pairs the PST builder computed over an edge-split copy of the
// function, and the builder now needs neither. It is kept because the
// benchmark's replica sums it. DeltaFull counts ApplyDelta calls, each
// of which invalidates; DeltaPatched stays 0, because no edit is
// patched in place.
type Counts struct {
	Liveness, Dom, Loops, PST, Seed, Busy int

	SplitDom     int
	DeltaPatched int
	DeltaFull    int
}

// Info is a per-function handle over the memoized analyses.
type Info struct {
	f *ir.Func

	mu      sync.Mutex
	lv      *dataflow.Liveness
	dom     *cfg.DomTree
	loops   *cfg.LoopForest
	tree    *pst.PST
	treeOK  bool // tree+treeErr memoized
	treeErr error
	seed    []*core.Set
	seedOK  bool
	busy    map[ir.Reg][]bool
	counts  Counts
}

// For returns a fresh handle for f with nothing memoized. Callers that
// want cross-call sharing should hold on to the Info (or use a Cache);
// a throwaway For(f) per call reproduces the unshared behavior.
func For(f *ir.Func) *Info { return &Info{f: f} }

// Liveness returns the function's per-block live-in/out sets.
func (i *Info) Liveness() *dataflow.Liveness {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.livenessLocked()
}

func (i *Info) livenessLocked() *dataflow.Liveness {
	if i.lv == nil {
		i.counts.Liveness++
		i.lv = dataflow.ComputeLiveness(i.f)
	}
	return i.lv
}

func (i *Info) domLocked() *cfg.DomTree {
	if i.dom == nil {
		i.counts.Dom++
		i.dom = cfg.Dominators(i.f)
	}
	return i.dom
}

// Loops returns the natural loop forest.
func (i *Info) Loops() *cfg.LoopForest {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.loopsLocked()
}

func (i *Info) loopsLocked() *cfg.LoopForest {
	if i.loops == nil {
		i.counts.Loops++
		i.loops = cfg.FindLoops(i.f, i.domLocked())
	}
	return i.loops
}

// PST returns the program structure tree of maximal SESE regions. The
// build error, if any, is memoized too.
func (i *Info) PST() (*pst.PST, error) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.treeOK {
		i.counts.PST++
		i.tree, i.treeErr = pst.Build(i.f)
		i.treeOK = true
	}
	return i.tree, i.treeErr
}

// ShrinkwrapSeed returns the paper's modified shrink-wrapping seed
// sets (spill code may sit on jump edges), the hierarchical
// algorithm's starting point. The sets are shared — callers must not
// mutate them; core.Hierarchical and core.Apply never do.
func (i *Info) ShrinkwrapSeed() []*core.Set {
	i.mu.Lock()
	defer i.mu.Unlock()
	if !i.seedOK {
		i.counts.Seed++
		i.seed = shrinkwrap.ComputeWith(i.f, shrinkwrap.Seed, shrinkwrap.Inputs{
			Liveness: i.livenessLocked(),
			Busy:     i.busyLocked,
		})
		i.seedOK = true
	}
	return i.seed
}

// BusyBlocks returns the blocks where reg is busy (referenced, or
// carrying a live allocated value) — the per-register mask both
// shrink-wrap modes grow their regions from. The slice is shared and
// read-only.
func (i *Info) BusyBlocks(reg ir.Reg) []bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.busyLocked(reg)
}

func (i *Info) busyLocked(reg ir.Reg) []bool {
	m, ok := i.busy[reg]
	if !ok {
		i.counts.Busy++
		if i.busy == nil {
			i.busy = make(map[ir.Reg][]bool)
		}
		m = shrinkwrap.BusyBlocks(i.f, reg, i.livenessLocked())
		i.busy[reg] = m
	}
	return m
}

// Invalidate drops every memoized result. Call it after any pass
// mutates the function (core.Apply, register allocation); the next
// accessor call recomputes against the new shape. Counts are
// cumulative and survive invalidation.
func (i *Info) Invalidate() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.invalidateLocked()
}

func (i *Info) invalidateLocked() {
	i.lv, i.dom, i.loops = nil, nil, nil
	i.tree, i.treeErr, i.treeOK = nil, nil, false
	i.seed, i.seedOK = nil, false
	i.busy = nil
}

// ApplyDelta invalidates the memoized analyses after a placement edit
// (normally the delta core.ApplyWithDelta returned for this function)
// and counts the call in Counts.DeltaFull. The delta is not read, nil
// included: placement runs once per function, and nothing reads the
// function's analyses afterwards, so patching them would be wasted
// work. It reports false, meaning nothing was patched in place.
//
// Like Invalidate, ApplyDelta must not run concurrently with readers
// of the same function.
func (i *Info) ApplyDelta(*core.Delta) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.counts.DeltaFull++
	i.invalidateLocked()
	return false
}

// Counts returns the cumulative build counters.
func (i *Info) Counts() Counts {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.counts
}
