package core

import (
	"errors"
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/machine"
)

// ValidateSets checks that a logical placement preserves the callee-
// saved convention along every execution path and never corrupts an
// allocated value:
//
//  1. Convention: simulating every path with a (register-holds-
//     original, slot-holds-original) state machine, every procedure
//     exit must be reached with the register holding its original
//     value, for every register that the allocation writes.
//  2. No corruption: a restore must not be placed at a point where the
//     register's allocated value is still live (that would overwrite
//     the variable), checked against real liveness of the register.
//
// It works on the placement description, before Apply mutates the
// function. All simulation state is local to the call, so concurrent
// validation of distinct functions is safe.
func ValidateSets(f *ir.Func, sets []*Set) error {
	return ValidateSetsLive(f, sets, dataflow.ComputeLiveness(f))
}

// ValidateSetsLive is ValidateSets over a caller-provided liveness
// solution for f, so callers holding one (the shared analysis layer)
// do not pay for a rebuild. lv must describe f's current shape.
func ValidateSetsLive(f *ir.Func, sets []*Set, lv *dataflow.Liveness) error {
	var errs []error
	for _, reg := range f.UsedCalleeSaved {
		var regSets []*Set
		for _, s := range sets {
			if s.Reg == reg {
				regSets = append(regSets, s)
			}
		}
		if err := validateReg(f, reg, regSets, lv); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

type pointOps struct {
	restores int // count of restore instructions at this point
	saves    int
}

// validateReg checks one register's placement.
func validateReg(f *ir.Func, reg ir.Reg, sets []*Set, lv *dataflow.Liveness) error {
	heads := make(map[*ir.Block]*pointOps)
	tails := make(map[*ir.Block]*pointOps)
	edges := make(map[*ir.Edge]*pointOps)
	get := func(m map[*ir.Block]*pointOps, b *ir.Block) *pointOps {
		p := m[b]
		if p == nil {
			p = &pointOps{}
			m[b] = p
		}
		return p
	}
	getE := func(e *ir.Edge) *pointOps {
		p := edges[e]
		if p == nil {
			p = &pointOps{}
			edges[e] = p
		}
		return p
	}
	for _, s := range sets {
		for _, l := range s.Saves {
			switch l.Kind {
			case BlockHead:
				get(heads, l.Block).saves++
			case BlockTail:
				get(tails, l.Block).saves++
			case OnEdge:
				getE(l.Edge).saves++
			}
		}
		for _, l := range s.Restores {
			switch l.Kind {
			case BlockHead:
				get(heads, l.Block).restores++
			case BlockTail:
				get(tails, l.Block).restores++
			case OnEdge:
				getE(l.Edge).restores++
			}
		}
	}

	// Corruption check: a restore where the register's value is live.
	for _, s := range sets {
		for _, l := range s.Restores {
			switch l.Kind {
			case BlockHead:
				if lv.LiveIn(l.Block, reg) {
					return fmt.Errorf("core: restore of %v at %v overwrites a live value", reg, l)
				}
			case BlockTail:
				if lv.LiveOut(l.Block, reg) || terminatorUses(l.Block, reg) {
					return fmt.Errorf("core: restore of %v at %v overwrites a live value", reg, l)
				}
			case OnEdge:
				if lv.LiveIn(l.Edge.To, reg) {
					return fmt.Errorf("core: restore of %v at %v overwrites a live value", reg, l)
				}
			}
		}
	}

	// Clobber blocks: the allocation writes reg there.
	clobbers := make([]bool, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Def() == reg && in.Op != ir.OpRestore {
				clobbers[b.ID] = true
			}
		}
	}

	// State: bit0 = register holds original, bit1 = slot holds
	// original. Entry state: register yes, slot no.
	type st uint8
	const (
		regOrig st = 1 << iota
		slotOrig
	)
	apply := func(s st, p *pointOps) st {
		if p == nil {
			return s
		}
		for i := 0; i < p.restores; i++ {
			if s&slotOrig != 0 {
				s |= regOrig
			} else {
				s &^= regOrig
			}
		}
		for i := 0; i < p.saves; i++ {
			if s&regOrig != 0 {
				s |= slotOrig
			} else {
				s &^= slotOrig
			}
		}
		return s
	}

	seen := make(map[[2]int]bool) // (block ID, state)
	type item struct {
		b *ir.Block
		s st
	}
	work := []item{{f.Entry, regOrig}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		key := [2]int{it.b.ID, int(it.s)}
		if seen[key] {
			continue
		}
		seen[key] = true

		s := apply(it.s, heads[it.b])
		if clobbers[it.b.ID] {
			s &^= regOrig
		}
		s = apply(s, tails[it.b])
		if it.b.IsExit() {
			if s&regOrig == 0 {
				return fmt.Errorf("core: register %v does not hold its original value at exit %s",
					reg, it.b.Name)
			}
			continue
		}
		for _, e := range it.b.Succs {
			work = append(work, item{e.To, apply(s, edges[e])})
		}
	}
	return nil
}

func terminatorUses(b *ir.Block, reg ir.Reg) bool {
	t := b.Terminator()
	if t == nil {
		return false
	}
	var buf [4]ir.Reg
	for _, u := range t.Uses(buf[:0]) {
		if u == reg {
			return true
		}
	}
	return false
}

// DynamicOverhead sums the dynamic execution counts of every
// compiler-inserted overhead instruction in f (allocator spill code,
// callee-saved saves/restores, and jump-block jumps), using the
// profile weights on the CFG. The VM measures the same quantity by
// execution; the two must agree when the profile matches the run.
func DynamicOverhead(f *ir.Func) int64 {
	var total int64
	for _, b := range f.Blocks {
		n := int64(0)
		for _, in := range b.Instrs {
			if in.IsOverhead() {
				n++
			}
		}
		if n > 0 {
			total += n * b.ExecCount()
		}
	}
	return total
}

// OverheadBreakdown splits DynamicOverhead by instruction class.
type OverheadBreakdown struct {
	SpillLoads    int64 // allocator spill reloads
	SpillStores   int64 // allocator spill stores
	Saves         int64 // callee-saved saves
	Restores      int64 // callee-saved restores
	JumpBlockJmps int64 // jumps added for jump blocks
}

// Total sums all categories.
func (o OverheadBreakdown) Total() int64 {
	return o.SpillLoads + o.SpillStores + o.Saves + o.Restores + o.JumpBlockJmps
}

// Cost prices the breakdown with a machine's cost surface: memory
// reads at the spill-load latency, memory writes at the spill-store
// latency, jump-block jumps at the taken-jump penalty. With unit costs
// it equals Total. The VM's Stats.WeightedOverhead measures the same
// quantity by execution; the two must agree when the profile matches
// the run.
func (o OverheadBreakdown) Cost(c machine.Costs) int64 {
	return c.Price(o.SpillLoads+o.Restores, o.SpillStores+o.Saves, o.JumpBlockJmps)
}

// Breakdown computes the per-class dynamic overhead of f.
func Breakdown(f *ir.Func) OverheadBreakdown {
	var o OverheadBreakdown
	for _, b := range f.Blocks {
		w := b.ExecCount()
		for _, in := range b.Instrs {
			switch {
			case in.Flags&ir.FlagSaveRestore != 0 && in.Op == ir.OpSave:
				o.Saves += w
			case in.Flags&ir.FlagSaveRestore != 0 && in.Op == ir.OpRestore:
				o.Restores += w
			case in.Flags&ir.FlagJumpBlock != 0:
				o.JumpBlockJmps += w
			case in.Flags&ir.FlagSpill != 0 && in.Op == ir.OpSpillLoad:
				o.SpillLoads += w
			case in.Flags&ir.FlagSpill != 0 && in.Op == ir.OpSpillStore:
				o.SpillStores += w
			}
		}
	}
	return o
}
