// Package dataflow computes liveness, the one dataflow analysis the
// register allocator and both spill placement algorithms rely on.
//
// Only a name that some block reads before writing it can be live
// across a block boundary (the "global names" of Briggs, Cooper, Harvey
// and Simpson, 1998). The solver numbers those names densely and solves
// them one at a time by path exploration: from every block that reads a
// name first, it walks predecessors until a block that defines the name
// (Brandner et al., "Computing Liveness Sets for SSA-Form Programs",
// 2011). Its cost follows the sizes of the sets it writes, not the
// register count times the block count.
package dataflow

import (
	"math"

	"repro/internal/ir"
)

// Liveness holds per-block live-in and live-out register sets. Each set
// is an ascending list of registers, physical and virtual. Blocks
// unreachable from the entry have empty sets.
type Liveness struct {
	// regs holds every list back to back: block b's live-in list is
	// regs[off[2b]:off[2b+1]] and its live-out list the next one.
	regs []ir.Reg
	off  []int32
}

// Blocks returns the number of blocks the sets describe.
func (lv *Liveness) Blocks() int { return (len(lv.off) - 1) / 2 }

// In returns the registers live on entry to the block with ID id, in
// ascending order. The slice is shared; callers must not modify it.
func (lv *Liveness) In(id int) []ir.Reg { return lv.regs[lv.off[2*id]:lv.off[2*id+1]] }

// Out returns the registers live on exit from the block with ID id, in
// ascending order. The slice is shared; callers must not modify it.
func (lv *Liveness) Out(id int) []ir.Reg { return lv.regs[lv.off[2*id+1]:lv.off[2*id+2]] }

// LiveIn reports whether r is live on entry to b.
func (lv *Liveness) LiveIn(b *ir.Block, r ir.Reg) bool { return contains(lv.In(b.ID), r) }

// LiveOut reports whether r is live on exit from b.
func (lv *Liveness) LiveOut(b *ir.Block, r ir.Reg) bool { return contains(lv.Out(b.ID), r) }

// contains reports whether the ascending set holds r, scanning up to
// the first register not below r.
func contains(set []ir.Reg, r ir.Reg) bool {
	for _, x := range set {
		if x >= r {
			return x == r
		}
	}
	return false
}

// unreachable marks a block the entry cannot reach in the exploration
// stamps: it compares above every stamp, so walks never enter it.
const unreachable = math.MaxInt32

// exposed flags, in a register's scan stamp, that some block reads the
// register before writing it.
const exposed = 1 << 30

// ComputeLiveness solves backward liveness over all registers. Calls
// are treated as using their argument registers and defining their
// result register.
func ComputeLiveness(f *ir.Func) *Liveness {
	nb := len(f.Blocks)
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	scratch := make([]int32, 3*nb+1+int(ir.VirtBase)+f.NumVirt)
	s := solver{
		f:       f,
		inMark:  scratch[:nb],
		outMark: scratch[nb : 2*nb],
		off:     scratch[2*nb : 3*nb+1],
		mark:    scratch[3*nb+1:],
		visits:  make([]int32, 0, 4*nb),
	}
	// Unreachable blocks stay out of the scan, and no walk enters them.
	reachable(f, s.inMark, s.visits)
	copy(s.outMark, s.inMark)
	s.scan(make([]ir.Reg, 0, n+nb))
	s.number()
	lv := &Liveness{off: make([]int32, 2*nb+2)}
	s.explore(lv.off)
	s.fill(lv)
	return lv
}

// solver is the scratch state of one ComputeLiveness. Block-indexed
// arrays are indexed by block ID; the name-indexed ones by dense name
// number k, from 1.
type solver struct {
	f *ir.Func

	// inMark and outMark hold, per block, the number of the last name
	// put into the block's live-in or live-out set; unreachable blocks
	// hold unreachable.
	inMark, outMark []int32

	// ops lists, per reachable block, the block's upward-exposed
	// registers r and, as ^r, the registers it defines; block b's
	// entries are ops[off[b]:off[b+1]].
	ops []ir.Reg
	off []int32

	// mark is register-indexed. During the scan it holds the stamp of
	// the last block that read or wrote the register, with the exposed
	// flag; afterwards -k for the register named k, and a non-negative
	// value for every register no block reads first.
	mark []int32

	// byName lists, per name k, its upward-exposed blocks b and, as
	// ^b, its defining blocks: byName[nameOff[k-1]:nameOff[k]]. Once
	// explore has walked name k, nameOff[k-1] holds where its visits
	// end.
	byName, nameOff []int32

	// visits lists, per name in turn, the blocks the name is live into
	// (b) and live out of (^b).
	visits []int32
}

// reachable sets mark[b] to 0 for every block b the entry reaches and
// to unreachable for the rest, using stack's capacity as its work list.
func reachable(f *ir.Func, mark, stack []int32) {
	for id := range mark {
		mark[id] = unreachable
	}
	mark[f.Entry.ID] = 0
	stack = append(stack[:0], int32(f.Entry.ID))
	for len(stack) > 0 {
		b := f.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		for _, e := range b.Succs {
			if id := e.To.ID; mark[id] != 0 {
				mark[id] = 0
				stack = append(stack, int32(id))
			}
		}
	}
}

// scan reads every reachable block's operands once, forward, and
// records its upward-exposed and defined registers in ops.
func (s *solver) scan(ops []ir.Reg) {
	mark := s.mark
	for id, b := range s.f.Blocks {
		s.off[id] = int32(len(ops))
		if s.inMark[id] == unreachable {
			continue
		}
		// read: the block read the register before any write to it;
		// wrote: the block wrote it. Stamps grow with the block ID, so
		// a stamp below read is left over from an earlier block.
		read := 2*int32(id) + 1
		wrote := read + 1
		for _, in := range b.Instrs {
			if r := in.Src1; r >= 0 && mark[r]&^exposed < read {
				mark[r] = read | exposed
				ops = append(ops, r)
			}
			if r := in.Src2; r >= 0 && mark[r]&^exposed < read {
				mark[r] = read | exposed
				ops = append(ops, r)
			}
			for _, r := range in.Args {
				if r >= 0 && mark[r]&^exposed < read {
					mark[r] = read | exposed
					ops = append(ops, r)
				}
			}
			if r := in.Dst; r >= 0 && mark[r]&^exposed != wrote {
				mark[r] = wrote | mark[r]&exposed
				ops = append(ops, ^r)
			}
		}
	}
	s.off[len(s.f.Blocks)] = int32(len(ops))
	s.ops = ops
}

// number names the exposed registers 1, 2, ... in ascending register
// order, drops the entries of every other register from ops, and
// indexes each name's upward-exposed and defining blocks.
func (s *solver) number() {
	names := int32(0)
	for r, m := range s.mark {
		if m&exposed != 0 {
			names++
			s.mark[r] = -names
		}
	}
	// nameOff[k+1] counts name k's entries, then becomes its start.
	s.nameOff = make([]int32, names+2)
	w, lo := int32(0), int32(0)
	for id := range s.f.Blocks {
		hi := s.off[id+1]
		s.off[id] = w
		for _, r := range s.ops[lo:hi] {
			if k := s.mark[max(r, ^r)]; k < 0 {
				s.ops[w] = r
				w++
				s.nameOff[1-k]++
			}
		}
		lo = hi
	}
	s.off[len(s.f.Blocks)] = w
	for k := 1; k < len(s.nameOff); k++ {
		s.nameOff[k] += s.nameOff[k-1]
	}
	// Fill in ops order, which keeps a block's upward-exposed entry
	// before its defining one. Filling advances name k's cursor,
	// nameOff[k], to its end, so nameOff[k-1]:nameOff[k] is then name
	// k's range.
	s.byName = make([]int32, w)
	for id := range s.f.Blocks {
		for _, r := range s.ops[s.off[id]:s.off[id+1]] {
			b := int32(id)
			if r < 0 {
				r, b = ^r, ^b
			}
			k := -s.mark[r]
			s.byName[s.nameOff[k]] = b
			s.nameOff[k]++
		}
	}
}

// explore walks every name in ascending register order, recording the
// walks in visits and counting each set's size into count: block b's
// live-in set at count[2b+2], its live-out set at count[2b+3].
func (s *solver) explore(count []int32) {
	for _, m := range s.mark {
		if m < 0 {
			k := -m
			s.walk(s.byName[s.nameOff[k-1]:s.nameOff[k]], k, count)
			s.nameOff[k-1] = int32(len(s.visits))
		}
	}
}

// walk marks name k live into its upward-exposed blocks and from each
// walks predecessors, marking the name live out of every predecessor
// and live into every predecessor that does not define it. entries are
// the name's blocks, as byName lists them. The visits the walk appends
// are its work list.
func (s *solver) walk(entries []int32, k int32, count []int32) {
	next := len(s.visits)
	for _, b := range entries {
		if b >= 0 {
			s.inMark[b] = k
			count[2*b+2]++
			s.visits = append(s.visits, b)
		} else if s.inMark[^b] < k {
			// A block that defines the name before reading it stops
			// the walk.
			s.inMark[^b] = k
		}
	}
	for ; next < len(s.visits); next++ {
		b := s.visits[next]
		if b < 0 {
			continue // a live-out visit
		}
		for _, e := range s.f.Blocks[b].Preds {
			p := int32(e.From.ID)
			if s.outMark[p] < k {
				s.outMark[p] = k
				count[2*p+3]++
				s.visits = append(s.visits, ^p)
			}
			if s.inMark[p] < k {
				s.inMark[p] = k
				count[2*p+2]++
				s.visits = append(s.visits, p)
			}
		}
	}
}

// fill turns lv.off from counts into offsets and writes the names into
// one slab at them. Names come in ascending register order, so every
// list does too.
func (s *solver) fill(lv *Liveness) {
	off := lv.off
	for j := 1; j < len(off); j++ {
		off[j] += off[j-1]
	}
	// off[j+1] is now where list j starts. Writing list j advances it
	// to the list's end, which is where list j+1 starts.
	lv.regs = make([]ir.Reg, off[len(off)-1])
	lo := int32(0)
	for r, m := range s.mark {
		if m >= 0 {
			continue
		}
		hi := s.nameOff[-m-1]
		for _, b := range s.visits[lo:hi] {
			cursor := 2*b + 1 // b's live-in list
			if b < 0 {
				cursor = 2*^b + 2 // ^b's live-out list
			}
			lv.regs[off[cursor]] = ir.Reg(r)
			off[cursor]++
		}
		lo = hi
	}
	lv.off = off[:len(off)-1]
}
