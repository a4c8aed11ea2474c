// Package core implements the paper's contribution: save/restore
// locations and sets, the execution-count and jump-edge cost models,
// and the hierarchical spill code placement algorithm over the
// program structure tree, together with placement application (jump
// block insertion) and structural validation.
package core

import (
	"fmt"

	"repro/internal/ir"
)

// LocKind distinguishes where a save or restore instruction lives.
type LocKind uint8

const (
	// BlockHead places the instruction before all others in a block.
	// It covers every incoming edge and never needs a jump block.
	BlockHead LocKind = iota
	// BlockTail places the instruction just before the terminator.
	// It covers every outgoing edge and never needs a jump block.
	BlockTail
	// OnEdge places the instruction on one control flow edge. If the
	// edge is a jump edge, physically inserting the code requires a
	// jump block (an extra jump instruction at run time).
	OnEdge
)

// Location is one save or restore placement point.
type Location struct {
	Kind  LocKind
	Block *ir.Block // BlockHead/BlockTail
	Edge  *ir.Edge  // OnEdge

	// JumpSharers is the number of callee-saved registers sharing a
	// jump block on this edge at seed time. The jump-edge cost model
	// divides the jump instruction's cost among them for initial
	// (shrink-wrap determined) sets; sets created by the hierarchical
	// algorithm always use 1. Zero means 1.
	JumpSharers int
}

// EdgeLoc builds a location on edge e, normalized to the equivalent
// in-block form when one exists: if the target has a single
// predecessor the location is the target's head, else if the source
// has a single successor it is the source's tail, and only otherwise
// does the location stay on the edge itself.
func EdgeLoc(e *ir.Edge) Location {
	if len(e.To.Preds) == 1 {
		return Location{Kind: BlockHead, Block: e.To}
	}
	if len(e.From.Succs) == 1 {
		return Location{Kind: BlockTail, Block: e.From}
	}
	return Location{Kind: OnEdge, Edge: e}
}

// HeadLoc builds a location at the head of b.
func HeadLoc(b *ir.Block) Location { return Location{Kind: BlockHead, Block: b} }

// TailLoc builds a location at the tail of b (before its terminator).
func TailLoc(b *ir.Block) Location { return Location{Kind: BlockTail, Block: b} }

// Weight is the dynamic execution count of the location.
func (l Location) Weight() int64 {
	if l.Kind == OnEdge {
		return l.Edge.Weight
	}
	return l.Block.ExecCount()
}

// NeedsJumpBlock reports whether physically inserting code at this
// location requires a new jump block with a trailing jump instruction.
func (l Location) NeedsJumpBlock() bool {
	return l.Kind == OnEdge && l.Edge.Kind == ir.Jump
}

// sharers returns the jump-cost divisor (at least 1).
func (l Location) sharers() int {
	if l.JumpSharers < 1 {
		return 1
	}
	return l.JumpSharers
}

// String renders the location for diagnostics.
func (l Location) String() string {
	switch l.Kind {
	case BlockHead:
		return "head(" + l.Block.Name + ")"
	case BlockTail:
		return "tail(" + l.Block.Name + ")"
	default:
		return fmt.Sprintf("edge(%s->%s)", l.Edge.From.Name, l.Edge.To.Name)
	}
}

// Set is a save/restore set: the save and restore locations for one
// callee-saved register that depend on each other for validity and
// are independent of every other set.
type Set struct {
	Reg      ir.Reg
	Saves    []Location
	Restores []Location
	// Seed marks sets produced by the initial shrink-wrapping
	// analysis; their jump costs are shared among registers.
	Seed bool
}

// Locations returns all locations of the set, saves first.
func (s *Set) Locations() []Location {
	out := make([]Location, 0, len(s.Saves)+len(s.Restores))
	out = append(out, s.Saves...)
	out = append(out, s.Restores...)
	return out
}

// String renders the set for diagnostics.
func (s *Set) String() string {
	str := fmt.Sprintf("set[%v] saves:", s.Reg)
	for _, l := range s.Saves {
		str += " " + l.String()
	}
	str += " restores:"
	for _, l := range s.Restores {
		str += " " + l.String()
	}
	return str
}
