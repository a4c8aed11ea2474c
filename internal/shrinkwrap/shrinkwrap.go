// Package shrinkwrap implements Chow's shrink-wrapping placement of
// callee-saved save/restore code (PLDI'88), in two modes:
//
//   - Original: Chow's published technique. Artificial data flow is
//     propagated through loop bodies so spill code never lands inside
//     a loop, and whenever the analysis would place spill code on a
//     jump edge, artificial data flow is propagated along that edge
//     and the analysis reiterated, so no spill code ever requires a
//     jump block.
//   - Seed: the paper's modified variant used to seed the hierarchical
//     algorithm: no artificial data flow at all; spill code may sit on
//     jump edges.
//
// Both modes return save/restore sets grouped web-style: one set per
// connected region of blocks where the register is busy (referenced,
// or carrying a live allocated value).
package shrinkwrap

import (
	"slices"
	"sort"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/machine"
)

// Mode selects the algorithm variant.
type Mode int

const (
	// Seed is the paper's modified shrink-wrapping (section 4).
	Seed Mode = iota
	// Original is Chow's technique with artificial data flow.
	Original
)

// String names the mode.
func (m Mode) String() string {
	if m == Original {
		return "shrinkwrap-original"
	}
	return "shrinkwrap-seed"
}

// Inputs optionally carries prebuilt analyses so a caller that already
// holds them (the shared analysis layer, internal/analysis) does not
// pay for a rebuild. Nil fields are computed on demand.
type Inputs struct {
	// Liveness is the function's liveness solution.
	Liveness *dataflow.Liveness
	// Loops is the natural loop forest (consumed by Original mode
	// only).
	Loops *cfg.LoopForest
	// Busy, if non-nil, supplies the per-register busy-block mask. The
	// returned slice is treated as read-only: Original mode copies it
	// before propagating artificial data flow.
	Busy func(ir.Reg) []bool
	// Machine, if non-nil, supplies the cost surface Original mode's
	// jump-edge rule reads: Chow reiterates with artificial data flow
	// precisely because a jump block costs a taken jump, so on a
	// machine whose cost surface prices that jump at zero the
	// reiteration is skipped and spill code may stay on jump edges.
	// Nil means the paper's machine (unit costs), which always
	// reiterates.
	Machine *machine.Desc
}

// Compute returns the save/restore sets for every register in
// f.UsedCalleeSaved under the chosen mode. Jump-cost sharers are
// stamped on the result (relevant to the jump-edge cost model).
func Compute(f *ir.Func, mode Mode) []*core.Set {
	return ComputeWith(f, mode, Inputs{})
}

// ComputeWith is Compute over caller-provided analyses.
func ComputeWith(f *ir.Func, mode Mode, in Inputs) []*core.Set {
	lv := in.Liveness
	if lv == nil {
		lv = dataflow.ComputeLiveness(f)
	}
	loops := in.Loops
	if mode == Original && loops == nil {
		dom := cfg.Dominators(f)
		loops = cfg.FindLoops(f, dom)
	}
	var sets []*core.Set
	for _, reg := range f.UsedCalleeSaved {
		var busy []bool
		owned := true
		if in.Busy != nil {
			busy = in.Busy(reg)
			owned = false
		} else {
			busy = BusyBlocks(f, reg, lv)
		}
		sets = append(sets, computeReg(f, reg, mode, busy, owned, loops, jumpsCost(in.Machine))...)
	}
	core.AssignJumpSharers(sets)
	return sets
}

// jumpsCost reports whether the machine charges anything for the jump
// a jump block adds (nil means the paper's unit-cost machine, which
// does).
func jumpsCost(d *machine.Desc) bool {
	return d == nil || d.Costs.JumpCost() > 0
}

// computeReg runs the analysis for one register. busy is the
// register's busy-block mask; owned reports whether computeReg may
// mutate it in place (Original mode propagates artificial data flow
// through it). avoidJumps carries the machine's verdict on whether a
// jump block costs anything; when it does not, Original mode skips the
// jump-edge reiteration.
func computeReg(f *ir.Func, reg ir.Reg, mode Mode, busy []bool, owned bool, loops *cfg.LoopForest, avoidJumps bool) []*core.Set {
	if mode == Original {
		if !owned {
			busy = append([]bool(nil), busy...)
		}
		for {
			maskLoops(f, busy, loops)
			sets := placeSets(f, reg, busy, mode)
			if !avoidJumps || !propagateJumpEdges(sets, busy) {
				return sets
			}
			// Artificial data flow was added; reiterate.
		}
	}
	return placeSets(f, reg, busy, mode)
}

// BusyBlocks marks blocks where the register is busy: it is referenced
// by an instruction, or the allocated value is live into the block
// (covering gap blocks between a definition and a later use).
func BusyBlocks(f *ir.Func, reg ir.Reg, lv *dataflow.Liveness) []bool {
	busy := make([]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		if lv.LiveIn(b, reg) {
			busy[b.ID] = true
			continue
		}
		for _, in := range b.Instrs {
			// reg is a register, so comparing it with absent operands
			// (NoReg) is safe.
			if in.Dst == reg || in.Src1 == reg || in.Src2 == reg || slices.Contains(in.Args, reg) {
				busy[b.ID] = true
				break
			}
		}
	}
	return busy
}

// maskLoops propagates artificial data flow through loop bodies: if
// any block of a natural loop is busy, every block of the loop becomes
// busy, so no save or restore is ever placed inside the loop. Nested
// loops are handled by iterating to a fixpoint.
func maskLoops(f *ir.Func, busy []bool, loops *cfg.LoopForest) {
	changed := true
	for changed {
		changed = false
		for _, l := range loops.Loops {
			any := false
			for _, b := range l.Blocks {
				if busy[b.ID] {
					any = true
					break
				}
			}
			if !any {
				continue
			}
			for _, b := range l.Blocks {
				if !busy[b.ID] {
					busy[b.ID] = true
					changed = true
				}
			}
		}
	}
}

// propagateJumpEdges checks whether any location requires a jump block
// (spill code on a jump edge proper). If so, it propagates artificial
// data flow along those edges — a save's source block or a restore's
// target block becomes busy — and reports true so the caller
// reiterates the analysis.
func propagateJumpEdges(sets []*core.Set, busy []bool) bool {
	changed := false
	for _, s := range sets {
		for _, l := range s.Saves {
			if l.NeedsJumpBlock() && !busy[l.Edge.From.ID] {
				busy[l.Edge.From.ID] = true
				changed = true
			}
		}
		for _, l := range s.Restores {
			if l.NeedsJumpBlock() && !busy[l.Edge.To.ID] {
				busy[l.Edge.To.ID] = true
				changed = true
			}
		}
	}
	return changed
}

// placeSets computes, for each connected busy component, the save
// locations on edges entering it and restore locations on edges
// leaving it, normalized to block head/tail form where all edges of a
// block participate.
func placeSets(f *ir.Func, reg ir.Reg, busy []bool, mode Mode) []*core.Set {
	comp := components(f, busy)
	nComp := 0
	for _, c := range comp {
		if c+1 > nComp {
			nComp = c + 1
		}
	}
	sets := make([]*core.Set, nComp)
	for i := range sets {
		sets[i] = &core.Set{Reg: reg, Seed: mode == Seed}
	}

	for _, b := range f.Blocks {
		ci := comp[b.ID]
		if ci < 0 {
			continue
		}
		s := sets[ci]
		// Saves: edges entering the component.
		if len(b.Preds) == 0 {
			// Procedure entry is busy: save at its head.
			s.Saves = append(s.Saves, core.HeadLoc(b))
		} else {
			allOutside := true
			for _, e := range b.Preds {
				if comp[e.From.ID] == ci {
					allOutside = false
					break
				}
			}
			if allOutside {
				s.Saves = append(s.Saves, core.HeadLoc(b))
			} else {
				for _, e := range b.Preds {
					if comp[e.From.ID] != ci {
						s.Saves = append(s.Saves, core.EdgeLoc(e))
					}
				}
			}
		}
		// Restores: edges leaving the component, or procedure exit.
		if b.IsExit() {
			s.Restores = append(s.Restores, core.TailLoc(b))
			continue
		}
		allOutside := true
		anyOutside := false
		for _, e := range b.Succs {
			if comp[e.To.ID] == ci {
				allOutside = false
			} else {
				anyOutside = true
			}
		}
		if !anyOutside {
			continue
		}
		if allOutside {
			s.Restores = append(s.Restores, core.TailLoc(b))
		} else {
			for _, e := range b.Succs {
				if comp[e.To.ID] != ci {
					s.Restores = append(s.Restores, core.EdgeLoc(e))
				}
			}
		}
	}

	// Drop empty sets (no busy blocks) and order deterministically.
	out := sets[:0]
	for _, s := range sets {
		if len(s.Saves) > 0 || len(s.Restores) > 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return firstLocID(out[i]) < firstLocID(out[j]) })
	return out
}

func firstLocID(s *core.Set) int {
	min := 1 << 30
	for _, l := range s.Locations() {
		id := 0
		switch l.Kind {
		case core.BlockHead, core.BlockTail:
			id = l.Block.ID
		case core.OnEdge:
			id = l.Edge.To.ID
		}
		if id < min {
			min = id
		}
	}
	return min
}

// components labels each busy block with a component index (-1 for
// non-busy blocks). Two busy blocks connected by a CFG edge are in the
// same component.
func components(f *ir.Func, busy []bool) []int {
	comp := make([]int, len(f.Blocks))
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for _, b := range f.Blocks {
		if !busy[b.ID] || comp[b.ID] >= 0 {
			continue
		}
		// Flood fill.
		comp[b.ID] = next
		stack := []*ir.Block{b}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range x.Succs {
				if busy[e.To.ID] && comp[e.To.ID] < 0 {
					comp[e.To.ID] = next
					stack = append(stack, e.To)
				}
			}
			for _, e := range x.Preds {
				if busy[e.From.ID] && comp[e.From.ID] < 0 {
					comp[e.From.ID] = next
					stack = append(stack, e.From)
				}
			}
		}
		next++
	}
	return comp
}
