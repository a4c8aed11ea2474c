package dataflow

import (
	"math/bits"

	"repro/internal/ir"
)

// PatchApply updates a memoized Liveness in place after a spill-code
// application edit (core.Apply): save/restore insertions of the
// physical registers regs, in existing blocks and in the newTo blocks
// that split edges (each mapping to the successor it jumps to). Every
// other register's sets carry over, a new block's from its successor's
// live-in set. One scan finds where each touched register is read
// first and written, and path exploration solves them again, so the
// sets equal a from-scratch ComputeLiveness of the edited function.
//
// oldID maps every pre-existing block to its pre-edit ID (the edit
// renumbers blocks). Reports false — leaving lv unusable — if the
// inputs do not describe lv's function or regs holds a virtual
// register; callers must then rebuild.
func (lv *Liveness) PatchApply(f *ir.Func, oldID map[*ir.Block]int, newTo map[*ir.Block]*ir.Block, regs []ir.Reg) bool {
	var touched uint64
	for _, r := range regs {
		if !r.IsPhys() {
			return false
		}
		touched |= 1 << r
	}
	nb := len(f.Blocks)
	scratch := make([]int32, 3*nb)
	from, reach, stack := scratch[:nb], scratch[nb:2*nb], scratch[2*nb:2*nb]
	// from: the pre-edit ID of the block itself, or ^ID of a new
	// block's successor.
	for _, b := range f.Blocks {
		to, isNew := newTo[b]
		if !isNew {
			to = b
		}
		id, ok := oldID[to]
		if !ok || id < 0 || id >= lv.Blocks() || b.ID < 0 || b.ID >= nb {
			return false
		}
		from[b.ID] = int32(id)
		if isNew {
			from[b.ID] = ^int32(id)
		}
	}
	reachable(f, reach, stack)

	// Per block, bit r of each mask stands for touched register r: the
	// block writes r (wrote), and r is live in (in) or live out (out).
	// in starts as the registers the block reads before writing them.
	masks := make([]uint64, 3*nb)
	wrote, in, out := masks[:nb], masks[nb:2*nb], masks[2*nb:]
	for _, b := range f.Blocks {
		if reach[b.ID] == unreachable {
			continue
		}
		var r, w uint64
		for _, ins := range b.Instrs {
			r |= bit(ins.Src1, touched) &^ w
			r |= bit(ins.Src2, touched) &^ w
			for _, a := range ins.Args {
				r |= bit(a, touched) &^ w
			}
			w |= bit(ins.Dst, touched)
		}
		in[b.ID], wrote[b.ID] = r, w
	}
	for t := touched; t != 0; t &= t - 1 {
		reg := t & -t
		stack = stack[:0]
		for id, r := range in {
			if r&reg != 0 {
				stack = append(stack, int32(id))
			}
		}
		for len(stack) > 0 {
			b := f.Blocks[stack[len(stack)-1]]
			stack = stack[:len(stack)-1]
			for _, e := range b.Preds {
				p := e.From.ID
				if reach[p] == unreachable {
					continue
				}
				out[p] |= reg
				if (in[p]|wrote[p])&reg == 0 {
					in[p] |= reg
					stack = append(stack, int32(p))
				}
			}
		}
	}

	// Count, then fill: each new list is the carried-over list without
	// the touched registers, merged with the solved ones.
	off := make([]int32, 2*nb+1)
	for id := 0; id < nb; id++ {
		inSet, outSet := lv.carried(from[id], reach[id])
		off[2*id+1] = off[2*id] + kept(inSet, touched) + int32(bits.OnesCount64(in[id]))
		off[2*id+2] = off[2*id+1] + kept(outSet, touched) + int32(bits.OnesCount64(out[id]))
	}
	lists := make([]ir.Reg, 0, off[2*nb])
	for id := 0; id < nb; id++ {
		inSet, outSet := lv.carried(from[id], reach[id])
		lists = merge(lists, inSet, touched, in[id])
		lists = merge(lists, outSet, touched, out[id])
	}
	lv.regs, lv.off = lists, off
	return true
}

// bit returns r's bit in touched, or 0.
func bit(r ir.Reg, touched uint64) uint64 {
	if r < 0 || r >= 64 {
		return 0
	}
	return touched & (1 << r)
}

// carried returns the pre-edit lists a block's sets start from: none
// if the entry cannot reach it.
func (lv *Liveness) carried(from, reach int32) (in, out []ir.Reg) {
	switch {
	case reach == unreachable:
		return nil, nil
	case from < 0: // a new block: its only successor's live-in set
		in = lv.In(int(^from))
		return in, in
	}
	return lv.In(int(from)), lv.Out(int(from))
}

// kept counts the registers of set that are not touched.
func kept(set []ir.Reg, touched uint64) int32 {
	n := int32(0)
	for _, r := range set {
		if bit(r, touched) == 0 {
			n++
		}
	}
	return n
}

// merge appends to dst, in ascending order, the registers of set that
// are not touched and those of solved, a mask of touched ones.
func merge(dst, set []ir.Reg, touched, solved uint64) []ir.Reg {
	// Physical registers lead set: fold the untouched ones into solved.
	i := 0
	for ; i < len(set) && set[i] < 64; i++ {
		solved |= (1 << set[i]) &^ touched
	}
	for ; solved != 0; solved &= solved - 1 {
		dst = append(dst, ir.Reg(bits.TrailingZeros64(solved)))
	}
	return append(dst, set[i:]...)
}
