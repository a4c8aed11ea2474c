package analysis

import (
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/pst"
)

// ApplyDelta incrementally re-validates the memoized analyses after an
// edit described by d (normally the delta core.ApplyWithDelta returned
// for this function). Every analysis that was already built is patched
// in place — the liveness sets, the dominator tree, and the loop
// forest — and the PST is patched through the retained builder while
// its memo still describes the pre-edit CFG. The shrink-wrap seed and
// the busy masks are always dropped: they derive from the edited
// instructions and recompute lazily from the patched liveness, so no
// build counter they share with a cold run is saved, but no stale set
// is ever served either.
//
// ApplyDelta reports whether it recognized the edit. On any
// unrecognized shape — nil delta, d.Full, a delta for a different
// function, or a patcher rejecting the edit — it falls back to a full
// Invalidate and reports false; the handle is always safe to keep
// using. Counts.DeltaPatched and Counts.DeltaFull record the outcomes.
//
// Like Invalidate, ApplyDelta must not run concurrently with readers
// of the same function.
func (i *Info) ApplyDelta(d *core.Delta) bool {
	i.mu.Lock()
	defer i.mu.Unlock()
	if d == nil || d.Full || d.Func != i.f {
		i.counts.DeltaFull++
		i.invalidateLocked()
		return false
	}
	f := i.f
	// With no edge splits the edit was purely in-block, so every block
	// must have kept its ID; anything else is an unrecognized shape.
	if len(d.Splits) == 0 {
		for _, b := range f.Blocks {
			if id, ok := d.OldID[b]; !ok || id != b.ID {
				i.counts.DeltaFull++
				i.invalidateLocked()
				return false
			}
		}
	}

	ok := true
	if i.lv != nil {
		newTo := make(map[*ir.Block]*ir.Block, len(d.Splits))
		for _, s := range d.Splits {
			newTo[s.NewBlock] = s.To
		}
		ok = i.lv.PatchApply(f, d.OldID, newTo, d.Regs)
	}
	if ok && (i.dom != nil || i.loops != nil) {
		splits := make([]cfg.EdgeSplit, len(d.Splits))
		for k, s := range d.Splits {
			splits[k] = cfg.EdgeSplit{From: s.From, To: s.To, NewBlock: s.NewBlock}
		}
		if i.dom != nil {
			ok = i.dom.PatchEdgeSplits(f, d.OldID, splits)
		}
		if ok && i.loops != nil {
			ok = i.loops.PatchEdgeSplits(f, d.OldID, splits)
		}
	}
	if !ok {
		i.counts.DeltaFull++
		i.invalidateLocked()
		return false
	}

	// The PST patch consumes the builder memo; when it cannot run
	// (memoized build error, already-consumed memo, rejected edit) only
	// the tree is dropped — the patched liveness/dom/loops stand, and
	// the next PST() rebuilds against the live CFG.
	if i.treeOK && len(d.Splits) > 0 {
		patched := false
		if i.treeErr == nil && i.tree != nil && i.builder != nil {
			splits := make([]pst.EdgeSplit, len(d.Splits))
			for k, s := range d.Splits {
				splits[k] = pst.EdgeSplit{
					From: s.From, To: s.To, NewBlock: s.NewBlock,
					OldEdge: s.OldEdge, FromEdge: s.FromEdge, ToEdge: s.ToEdge,
				}
			}
			patched = i.builder.Patch(i.tree, d.OldID, splits)
		}
		if !patched {
			i.tree, i.treeErr, i.treeOK = nil, nil, false
		}
	}

	i.seed, i.seedOK = nil, false
	i.busy = nil
	i.counts.DeltaPatched++
	return true
}
