package pst

import (
	"fmt"

	"repro/internal/ir"
)

// Builder builds PSTs for one function while memoizing the expensive
// internals — the augmented graph, the cycle-equivalence classes, and
// above all the edge-split graph's dominator and postdominator trees —
// behind a pointer-exact snapshot of the CFG shape. Repeated builds
// over an unchanged CFG (for example after register allocation, which
// rewrites instructions but no edges) reuse the memoized tree instead
// of recomputing the split-graph dominators; a build after a CFG
// change recomputes everything and refreshes the snapshot.
//
// A Builder additionally knows how to patch its last tree in place
// after an edge-split-only edit (Patch), consuming the memo.
//
// Builders are not safe for concurrent use; the analysis layer guards
// one per function behind its Info lock.
type Builder struct {
	f    *ir.Func
	mode Mode

	memo   *internals
	memoOK bool
	snap   snapshot

	lastTree *PST
	lastErr  error

	splitDomBuilds int
}

// snapshot is a pointer-exact fingerprint of the CFG shape the memo
// was computed for. Comparing pointers (not just counts) guarantees a
// stale memo can never be served for a structurally different graph
// that happens to have the same sizes.
type snapshot struct {
	entry  *ir.Block
	blocks []*ir.Block
	ids    []int
	succs  [][]*ir.Edge
	exits  []bool
}

// NewBuilder returns a builder for f over maximal SESE regions (the
// mode the paper's algorithm uses; Patch supports only this mode).
func NewBuilder(f *ir.Func) *Builder { return &Builder{f: f, mode: Maximal} }

// SplitDomBuilds returns how many times the builder computed the
// split-graph dominator and postdominator trees (one increment covers
// the pair). The analysis layer surfaces it next to its Counts hook.
func (b *Builder) SplitDomBuilds() int { return b.splitDomBuilds }

// Build returns the PST of the builder's function, reusing the
// memoized internals — and the memoized tree — when the CFG shape is
// pointer-identical to the last full build. Region boundary weights
// are read from the live edges at query time, so a memo hit stays
// correct across profile or instruction changes.
func (b *Builder) Build() (*PST, error) {
	if b.memoOK && b.snapValid() {
		return b.lastTree, b.lastErr
	}
	b.memoOK = false
	if err := ir.Verify(b.f); err != nil {
		return nil, fmt.Errorf("pst.Build: %w", err)
	}
	if len(b.f.Exits()) == 0 {
		return nil, fmt.Errorf("pst.Build(%s): function has no exit block", b.f.Name)
	}
	b.memo = computeInternals(b.f)
	b.splitDomBuilds++
	b.takeSnap()
	b.lastTree, b.lastErr = buildWith(b.f, b.mode, b.memo)
	b.memoOK = true
	return b.lastTree, b.lastErr
}

func (b *Builder) takeSnap() {
	f := b.f
	n := 0
	for _, blk := range f.Blocks {
		n += len(blk.Succs)
	}
	edges := make([]*ir.Edge, 0, n)
	s := snapshot{
		entry:  f.Entry,
		blocks: append([]*ir.Block(nil), f.Blocks...),
		ids:    make([]int, len(f.Blocks)),
		succs:  make([][]*ir.Edge, len(f.Blocks)),
		exits:  make([]bool, len(f.Blocks)),
	}
	for i, blk := range f.Blocks {
		s.ids[i] = blk.ID
		start := len(edges)
		edges = append(edges, blk.Succs...)
		s.succs[i] = edges[start:len(edges):len(edges)]
		s.exits[i] = blk.IsExit()
	}
	b.snap = s
}

func (b *Builder) snapValid() bool {
	f := b.f
	s := &b.snap
	if f.Entry != s.entry || len(f.Blocks) != len(s.blocks) {
		return false
	}
	for i, blk := range f.Blocks {
		if blk != s.blocks[i] || blk.ID != s.ids[i] || blk.IsExit() != s.exits[i] {
			return false
		}
		if len(blk.Succs) != len(s.succs[i]) {
			return false
		}
		for j, e := range blk.Succs {
			if e != s.succs[i][j] {
				return false
			}
		}
	}
	return true
}
