package pst

import (
	"repro/internal/ir"
)

// EdgeSplit describes one CFG edge split for PST patching: the edge
// OldEdge (From->To) was removed and replaced by FromEdge
// (From->NewBlock) and ToEdge (NewBlock->To), where NewBlock is a new
// block with no other predecessors or successors.
type EdgeSplit struct {
	From, To, NewBlock *ir.Block
	OldEdge            *ir.Edge
	FromEdge, ToEdge   *ir.Edge
}

// Patch updates t — which must be the builder's last built tree — in
// place after edge-split-only edits, using the memoized pre-edit
// internals instead of rebuilding anything. oldID maps every
// pre-existing block to its pre-edit ID.
//
// Subdividing an edge leaves the cycle-equivalence classes intact (the
// two halves inherit the old edge's class and are equivalent to each
// other), so the region set changes in exactly two ways: a region
// whose boundary was the split edge gets the matching half as its new
// boundary, and a split edge that formed a class of its own turns into
// a fresh two-edge class — a new region spanning the blocks the old
// edge dominated and postdominated. Each inserted block joins region
// (a, b) iff a dominates and b postdominates it in the edited split
// graph, which reduces to pre-edit dominance queries against the split
// edge's endpoints. All queries run against the memoized split-graph
// dominator trees; the patch consumes the memo (the internals describe
// the pre-edit CFG), so the next Build or Patch after a further edit
// recomputes from scratch.
//
// Reports false without touching t when the memo cannot describe the
// edit (no memo, wrong tree, non-Maximal mode, unknown edges); the
// caller must then rebuild. A false return after mutation began (tree
// reassembly failure) leaves t unusable, so callers must always treat
// false as "invalidate and rebuild".
func (b *Builder) Patch(t *PST, oldID map[*ir.Block]int, splits []EdgeSplit) bool {
	if t == nil || !b.memoOK || b.mode != Maximal || t != b.lastTree || b.lastErr != nil {
		return false
	}
	if len(splits) == 0 {
		return true
	}
	m := b.memo

	// Aug-edge index lookups over the pre-edit graph.
	edgeIdx := make(map[*ir.Edge]int)
	exitIdx := make(map[*ir.Block]int)
	entryIdx := -1
	for i, e := range m.a.edges {
		switch {
		case e.real != nil:
			edgeIdx[e.real] = i
		case e.exitFrom != nil:
			exitIdx[e.exitFrom] = i
		case e.isEntry:
			entryIdx = i
		}
	}
	if entryIdx < 0 {
		return false
	}

	// Per-aug-edge class shape: how many non-close edges share the
	// class, and whether the virtual END->START edge is in it.
	classSize := make([]int, len(m.a.edges))
	classClose := make([]bool, len(m.a.edges))
	for _, cl := range m.classes {
		n, hasClose := 0, false
		for _, i := range cl {
			if m.a.edges[i].isClose {
				hasClose = true
			} else {
				n++
			}
		}
		for _, i := range cl {
			classSize[i] = n
			classClose[i] = hasClose
		}
	}

	oldNode := func(blk *ir.Block) *ir.Block {
		id, ok := oldID[blk]
		if !ok || id < 0 || id >= m.split.nblocks {
			return nil
		}
		return m.split.blockNode(id)
	}

	// Validate every split against the memo before mutating anything.
	type splitInfo struct {
		s          EdgeSplit
		ie         int       // aug index of the split edge
		fromN, toN *ir.Block // pre-edit split-graph nodes of From / To
	}
	sis := make([]splitInfo, 0, len(splits))
	for _, s := range splits {
		ie, ok := edgeIdx[s.OldEdge]
		fn, tn := oldNode(s.From), oldNode(s.To)
		if !ok || fn == nil || tn == nil || s.NewBlock == nil || s.FromEdge == nil || s.ToEdge == nil {
			return false
		}
		sis = append(sis, splitInfo{s, ie, fn, tn})
	}

	// Record each region's boundary as pre-edit aug-edge indices; -1
	// encodes the root's virtual every-exit boundary.
	type bounds struct{ a, b int }
	rb := make(map[*Region]bounds, len(t.Regions)+len(sis))
	for _, r := range t.Regions {
		ba := entryIdx
		if r.EntryEdge != nil {
			i, ok := edgeIdx[r.EntryEdge]
			if !ok {
				return false
			}
			ba = i
		}
		bb := -1
		switch {
		case r.ExitEdge != nil:
			i, ok := edgeIdx[r.ExitEdge]
			if !ok {
				return false
			}
			bb = i
		case r.ExitBlock != nil:
			i, ok := exitIdx[r.ExitBlock]
			if !ok {
				return false
			}
			bb = i
		}
		rb[r] = bounds{ba, bb}
	}

	// Mutation starts here; the memo is consumed (its graphs describe
	// the pre-edit CFG and cannot serve a second edit).
	b.memoOK = false

	// 1. Re-index every region's membership to the post-edit block IDs
	// (the member pointers in Blocks are unchanged, their IDs are not).
	// Every bitset, the new regions' included, comes from one slab.
	words := setWords(len(b.f.Blocks))
	bits := make([]uint64, words*(len(t.Regions)+len(sis)))
	newSet := func() []uint64 {
		set := bits[:words:words]
		bits = bits[words:]
		return set
	}
	for _, r := range t.Regions {
		r.in = newSet()
		for _, blk := range r.Blocks {
			r.add(blk.ID)
		}
	}

	// 2. A split edge that formed a singleton class yields a fresh
	// maximal region bounded by the two new halves.
	for _, si := range sis {
		if classSize[si.ie] != 1 || classClose[si.ie] {
			continue
		}
		en := m.split.edgeNode(si.ie)
		r := &Region{EntryEdge: si.s.FromEdge, ExitEdge: si.s.ToEdge, in: newSet()}
		for _, blk := range b.f.Blocks {
			n := oldNode(blk)
			if n == nil {
				continue // an inserted block; placed in step 4
			}
			if m.dom.Dominates(en, n) && m.pdom.Dominates(en, n) {
				r.add(blk.ID)
				r.Blocks = append(r.Blocks, blk)
			}
		}
		rb[r] = bounds{si.ie, si.ie}
		t.Regions = append(t.Regions, r)
	}

	// 3. Swap split boundary edges: the entry half replaces the edge
	// as an entry boundary, the exit half as an exit boundary.
	for _, r := range t.Regions {
		for _, si := range sis {
			if r.EntryEdge == si.s.OldEdge {
				r.EntryEdge = si.s.FromEdge
			}
			if r.ExitEdge == si.s.OldEdge {
				r.ExitEdge = si.s.ToEdge
			}
		}
	}

	// 4. Place each inserted block. Every path to it runs through its
	// From and every path from it through its To, so boundary a
	// dominates it iff a is the split edge itself or a dominated From,
	// and boundary b postdominates it iff b is the split edge or b
	// postdominated To.
	for _, si := range sis {
		for _, r := range t.Regions {
			bd := rb[r]
			condA := bd.a == si.ie || m.dom.Dominates(m.split.edgeNode(bd.a), si.fromN)
			condB := bd.b == -1 || bd.b == si.ie || m.pdom.Dominates(m.split.edgeNode(bd.b), si.toN)
			if condA && condB {
				r.add(si.s.NewBlock.ID)
				r.Blocks = append(r.Blocks, si.s.NewBlock)
			}
		}
	}

	// 5. Reassemble nesting, order, and depths over the new membership.
	root, err := assemble(b.f, t.Regions)
	if err != nil {
		return false
	}
	t.Root = root
	return true
}
