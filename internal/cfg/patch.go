package cfg

import (
	"repro/internal/ir"
)

// EdgeSplit describes one CFG edge split for analysis patching: the
// edge From->To was replaced by From->NewBlock->To, and NewBlock has
// no other predecessors or successors. Both From and To predate the
// edit; NewBlock is new.
type EdgeSplit struct {
	From, To, NewBlock *ir.Block
}

// PatchEdgeSplits updates a memoized dominator tree in place after the
// given edge splits (plus a block renumbering described by oldID, the
// pre-edit ID of every pre-existing block). It only supports forward
// dominator trees; reports false — leaving the tree unusable — when it
// cannot patch, in which case the caller must rebuild.
//
// Splitting an edge never changes dominance among pre-existing blocks
// except possibly at To, so the patch is:
//
//   - idom(NewBlock) = From (its only predecessor);
//   - idom(To) becomes NewBlock iff To is not the entry and every
//     other predecessor of To was dominated by To before the edit
//     (then every path to To runs through the split edge);
//   - every other immediate dominator is unchanged.
func (t *DomTree) PatchEdgeSplits(f *ir.Func, oldID map[*ir.Block]int, splits []EdgeSplit) bool {
	if t.post || t.root == nil {
		return false
	}
	n := len(f.Blocks)
	newFrom := make(map[*ir.Block]*ir.Block, len(splits))
	for _, s := range splits {
		newFrom[s.NewBlock] = s.From
	}

	// Re-index the immediate dominators from old IDs to new IDs. The
	// values are block pointers, so the pre-edit chains stay walkable.
	idom := make([]*ir.Block, n)
	for _, b := range f.Blocks {
		if _, isNew := newFrom[b]; isNew {
			continue
		}
		id, ok := oldID[b]
		if !ok || id < 0 || id >= len(t.IDom) {
			return false
		}
		idom[b.ID] = t.IDom[id]
	}

	// dominatesOld answers "did a dominate b before the edit" by
	// walking the carried-over chains. A new block stands exactly where
	// its From stood (every path to it runs through From).
	dominatesOld := func(a, b *ir.Block) bool {
		if from, ok := newFrom[b]; ok {
			b = from
		}
		for b != nil {
			if a == b {
				return true
			}
			b = idom[b.ID]
		}
		return false
	}

	// Decide the idom(To) promotions against the pre-edit relation
	// before mutating anything.
	var promote []EdgeSplit
	for _, s := range splits {
		if s.To == t.root {
			continue
		}
		all := true
		for _, pe := range s.To.Preds {
			p := pe.From
			if p == s.NewBlock {
				continue
			}
			if !dominatesOld(s.To, p) {
				all = false
				break
			}
		}
		if all {
			promote = append(promote, s)
		}
	}
	for _, s := range splits {
		idom[s.NewBlock.ID] = s.From
	}
	for _, s := range promote {
		idom[s.To.ID] = s.NewBlock
	}

	t.IDom = idom
	t.finish(f)
	return true
}

// PatchEdgeSplits updates a memoized loop forest in place after the
// given edge splits plus renumbering (see DomTree.PatchEdgeSplits).
// Splitting an edge neither creates nor destroys natural loops and
// never changes the membership of pre-existing blocks; the inserted
// block joins loop L exactly when its successor To does as a non-header
// (the block sits on a path into To) or when To heads L and From lies
// in L (the split edge was the back edge, so the new block is now the
// back-edge source). Reports false when it cannot patch.
func (lf *LoopForest) PatchEdgeSplits(f *ir.Func, oldID map[*ir.Block]int, splits []EdgeSplit) bool {
	isNew := make(map[*ir.Block]bool, len(splits))
	for _, s := range splits {
		isNew[s.NewBlock] = true
	}
	for _, l := range lf.Loops {
		old := l.in
		l.in = make(map[int]bool, len(old)+len(splits))
		for _, b := range f.Blocks {
			if isNew[b] {
				continue
			}
			id, ok := oldID[b]
			if !ok {
				return false
			}
			if old[id] {
				l.in[b.ID] = true
			}
		}
	}
	for _, s := range splits {
		for _, l := range lf.Loops {
			if (l.in[s.To.ID] && s.To != l.Header) || (s.To == l.Header && l.in[s.From.ID]) {
				l.in[s.NewBlock.ID] = true
			}
		}
	}
	lf.assemble(f)
	return true
}
