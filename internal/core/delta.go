package core

import (
	"repro/internal/ir"
)

// EdgeSplit records one edge split performed by Apply: the edge
// OldEdge was replaced by FromEdge, into a new jump block holding the
// spill code that had to live on the edge, and the block's own edge
// on to the old target.
type EdgeSplit struct {
	// OldEdge is the removed edge. It is detached from the CFG and
	// must be used for identity only.
	OldEdge *ir.Edge
	// FromEdge is the replacement edge from OldEdge's source into the
	// new block, so it runs exactly as often as OldEdge did.
	FromEdge *ir.Edge
}

// Delta is the edit log of one Apply: the edges it split, which is
// how a caller maps counts measured on the placed function back onto
// its pre-placement edges (internal/tier does).
type Delta struct {
	// Splits lists the edge splits in application order.
	Splits []EdgeSplit
}
