package core

import (
	"repro/internal/ir"
)

// EdgeSplit records one edge split performed by Apply: the edge
// From->To was replaced by From->NewBlock->To, with NewBlock holding
// the spill code (and a trailing jump) that had to live on the edge.
type EdgeSplit struct {
	// From and To are the original endpoints; both predate the edit.
	From, To *ir.Block
	// NewBlock is the inserted jump block.
	NewBlock *ir.Block
	// OldEdge is the removed From->To edge. It is detached from the
	// CFG and must be used for identity only (analyses that memoized
	// the pointer can recognize it).
	OldEdge *ir.Edge
	// FromEdge and ToEdge are the replacement edges From->NewBlock and
	// NewBlock->To.
	FromEdge, ToEdge *ir.Edge
	// WasJump reports whether the split edge was a jump edge (the new
	// block was appended at the end of the layout) rather than a
	// fall-through edge (the new block was laid out after From).
	WasJump bool
}

// Delta is the structured edit log of one Apply: which blocks received
// in-block save/restore insertions and which edges were split. Every
// edit Apply performs is one of those two shapes, so an analysis that
// can patch both can update itself in place instead of rebuilding
// (analysis.Info.ApplyDelta); any other mutation source must either
// describe itself the same way or set Full.
type Delta struct {
	// Func is the edited function.
	Func *ir.Func

	// Splits lists the edge splits in application order.
	Splits []EdgeSplit
	// HeadBlocks and TailBlocks list the pre-existing blocks that
	// received head/tail save-restore insertions (no CFG change).
	HeadBlocks []*ir.Block
	// TailBlocks: see HeadBlocks.
	TailBlocks []*ir.Block
	// Regs lists the callee-saved registers the inserted save/restore
	// instructions touch, ascending. Liveness of every other register
	// is unaffected by the edit.
	Regs []ir.Reg

	// OldID maps every block that existed before the edit to its
	// pre-edit ID. Apply renumbers blocks after inserting jump blocks,
	// so ID-indexed analysis arrays must be remapped through it.
	OldID map[*ir.Block]int
	// OldNumBlocks is the pre-edit block count.
	OldNumBlocks int

	// Full marks an edit the structured fields do not describe (a
	// mid-apply failure, or a mutation from another source). Consumers
	// must fall back to full invalidation.
	Full bool
}

// FullDelta returns a delta that carries no structure and forces
// consumers to fully invalidate — the honest description of an edit
// the log cannot express.
func FullDelta(f *ir.Func) *Delta {
	return &Delta{Func: f, Full: true}
}
