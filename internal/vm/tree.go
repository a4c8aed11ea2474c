package vm

// tree.go is the legacy tree-walking interpreter: it chases *ir.Block
// pointers, re-tests overhead flags on every instruction, and counts
// calls and edges through maps. It is retained as the differential
// reference for the compiled regcode engine (regexec.go); the two must
// agree exactly on values, statistics, edge counts, and error
// reporting.

import (
	"fmt"

	"repro/internal/ir"
)

func (v *VM) runTree(args []int64) (int64, error) {
	f := v.prog.Func(v.prog.Main)
	if f == nil {
		return 0, fmt.Errorf("vm: main function %q not found", v.prog.Main)
	}
	return v.call(f, args, 0)
}

// frame holds per-invocation state.
type frame struct {
	virt  []int64
	spill []int64
	save  []int64
}

func (v *VM) call(f *ir.Func, args []int64, depth int) (int64, error) {
	if depth > maxCallDepth {
		return 0, fmt.Errorf("vm: call depth exceeded in %s", f.Name)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("vm: %s called with %d args, want %d", f.Name, len(args), len(f.Params))
	}
	v.Stats.Calls[f.Name]++

	fr := &frame{
		virt:  make([]int64, f.NumVirt),
		spill: make([]int64, f.SpillSlots),
		save:  make([]int64, f.SaveSlots),
	}
	for i, p := range f.Params {
		fr.set(v, p, args[i])
	}

	// Snapshot callee-saved registers for convention checking.
	var snapshot []int64
	if v.cfg.Machine != nil {
		for _, r := range v.cfg.Machine.CalleeSaved() {
			snapshot = append(snapshot, v.phys[r.PhysNum()])
		}
	}
	checkConvention := func() error {
		if v.cfg.Machine == nil {
			return nil
		}
		for i, r := range v.cfg.Machine.CalleeSaved() {
			if v.phys[r.PhysNum()] != snapshot[i] {
				return fmt.Errorf("vm: %s violated callee-saved convention: %v changed from %d to %d",
					f.Name, r, snapshot[i], v.phys[r.PhysNum()])
			}
		}
		return nil
	}

	b := f.Entry
	for {
		next, ret, retVal, err := v.execBlock(f, b, fr, depth)
		if err != nil {
			return 0, err
		}
		if ret {
			if err := checkConvention(); err != nil {
				return 0, err
			}
			return retVal, nil
		}
		if v.cfg.CollectEdges {
			if e := b.SuccEdge(next); e != nil {
				v.EdgeCount[e]++
			}
		}
		b = next
	}
}

// execBlock runs one basic block. It returns the successor block, or
// ret=true with the return value.
func (v *VM) execBlock(f *ir.Func, b *ir.Block, fr *frame, depth int) (next *ir.Block, ret bool, retVal int64, err error) {
	for _, in := range b.Instrs {
		v.steps++
		if v.steps > v.cfg.MaxSteps {
			return nil, false, 0, haltErr(f.Name, b.Name)
		}
		v.Stats.Instrs++
		if in.Op.IsMemLoad() {
			v.Stats.Loads++
		}
		if in.Op.IsMemStore() {
			v.Stats.Stores++
		}
		switch {
		case in.Flags&ir.FlagSpill != 0 && in.Op == ir.OpSpillLoad:
			v.Stats.SpillLoads++
		case in.Flags&ir.FlagSpill != 0 && in.Op == ir.OpSpillStore:
			v.Stats.SpillStores++
		case in.Flags&ir.FlagSaveRestore != 0 && in.Op == ir.OpSave:
			v.Stats.Saves++
		case in.Flags&ir.FlagSaveRestore != 0 && in.Op == ir.OpRestore:
			v.Stats.Restores++
		case in.Flags&ir.FlagJumpBlock != 0:
			v.Stats.JumpBlockJmps++
		}

		switch in.Op {
		case ir.OpNop:
		case ir.OpConst:
			fr.set(v, in.Dst, in.Imm)
		case ir.OpMov:
			fr.set(v, in.Dst, fr.get(v, in.Src1))
		case ir.OpAdd:
			fr.set(v, in.Dst, fr.get(v, in.Src1)+fr.get(v, in.Src2))
		case ir.OpSub:
			fr.set(v, in.Dst, fr.get(v, in.Src1)-fr.get(v, in.Src2))
		case ir.OpMul:
			fr.set(v, in.Dst, fr.get(v, in.Src1)*fr.get(v, in.Src2))
		case ir.OpDiv:
			d := fr.get(v, in.Src2)
			if d == 0 {
				fr.set(v, in.Dst, 0)
			} else {
				fr.set(v, in.Dst, fr.get(v, in.Src1)/d)
			}
		case ir.OpRem:
			d := fr.get(v, in.Src2)
			if d == 0 {
				fr.set(v, in.Dst, 0)
			} else {
				fr.set(v, in.Dst, fr.get(v, in.Src1)%d)
			}
		case ir.OpAnd:
			fr.set(v, in.Dst, fr.get(v, in.Src1)&fr.get(v, in.Src2))
		case ir.OpOr:
			fr.set(v, in.Dst, fr.get(v, in.Src1)|fr.get(v, in.Src2))
		case ir.OpXor:
			fr.set(v, in.Dst, fr.get(v, in.Src1)^fr.get(v, in.Src2))
		case ir.OpShl:
			fr.set(v, in.Dst, fr.get(v, in.Src1)<<uint(fr.get(v, in.Src2)&63))
		case ir.OpShr:
			fr.set(v, in.Dst, fr.get(v, in.Src1)>>uint(fr.get(v, in.Src2)&63))
		case ir.OpNeg:
			fr.set(v, in.Dst, -fr.get(v, in.Src1))
		case ir.OpNot:
			fr.set(v, in.Dst, ^fr.get(v, in.Src1))
		case ir.OpCmpEQ:
			fr.set(v, in.Dst, b2i(fr.get(v, in.Src1) == fr.get(v, in.Src2)))
		case ir.OpCmpNE:
			fr.set(v, in.Dst, b2i(fr.get(v, in.Src1) != fr.get(v, in.Src2)))
		case ir.OpCmpLT:
			fr.set(v, in.Dst, b2i(fr.get(v, in.Src1) < fr.get(v, in.Src2)))
		case ir.OpCmpLE:
			fr.set(v, in.Dst, b2i(fr.get(v, in.Src1) <= fr.get(v, in.Src2)))
		case ir.OpCmpGT:
			fr.set(v, in.Dst, b2i(fr.get(v, in.Src1) > fr.get(v, in.Src2)))
		case ir.OpCmpGE:
			fr.set(v, in.Dst, b2i(fr.get(v, in.Src1) >= fr.get(v, in.Src2)))
		case ir.OpLoad:
			addr := fr.get(v, in.Src1) + in.Imm
			if addr < 0 || addr >= int64(len(v.heap)) {
				return nil, false, 0, fmt.Errorf("vm: %s: load out of bounds at %d", f.Name, addr)
			}
			fr.set(v, in.Dst, v.heap[addr])
		case ir.OpStore:
			addr := fr.get(v, in.Src1) + in.Imm
			if addr < 0 || addr >= int64(len(v.heap)) {
				return nil, false, 0, fmt.Errorf("vm: %s: store out of bounds at %d", f.Name, addr)
			}
			v.heap[addr] = fr.get(v, in.Src2)
		case ir.OpSpillLoad:
			fr.ensureSpill(int(in.Imm))
			fr.set(v, in.Dst, fr.spill[in.Imm])
		case ir.OpSpillStore:
			fr.ensureSpill(int(in.Imm))
			fr.spill[in.Imm] = fr.get(v, in.Src1)
		case ir.OpSave:
			fr.ensureSave(int(in.Imm))
			fr.save[in.Imm] = fr.get(v, in.Src1)
		case ir.OpRestore:
			fr.ensureSave(int(in.Imm))
			fr.set(v, in.Dst, fr.save[in.Imm])
		case ir.OpCall:
			callee := v.prog.Func(in.Callee)
			if callee == nil {
				return nil, false, 0, fmt.Errorf("vm: %s calls undefined %q", f.Name, in.Callee)
			}
			args := make([]int64, len(in.Args))
			for i, a := range in.Args {
				args[i] = fr.get(v, a)
			}
			r, err := v.call(callee, args, depth+1)
			if err != nil {
				return nil, false, 0, err
			}
			if in.Dst.IsValid() {
				fr.set(v, in.Dst, r)
			}
		case ir.OpRet:
			var rv int64
			if in.Src1.IsValid() {
				rv = fr.get(v, in.Src1)
			}
			return nil, true, rv, nil
		case ir.OpBr:
			if fr.get(v, in.Src1) != 0 {
				return in.Then, false, 0, nil
			}
			return in.Else, false, 0, nil
		case ir.OpJmp:
			return in.Then, false, 0, nil
		default:
			return nil, false, 0, fmt.Errorf("vm: %s: unknown opcode %v", f.Name, in.Op)
		}
	}
	return nil, false, 0, fmt.Errorf("vm: %s: block %s fell off the end", f.Name, b.Name)
}

// haltErr wraps ErrStepLimit with the function and block where
// execution stopped; both engines produce the identical message.
func haltErr(fn, block string) error {
	return fmt.Errorf("%w in %s at block %s", ErrStepLimit, fn, block)
}

func (fr *frame) get(v *VM, r ir.Reg) int64 {
	if r.IsPhys() {
		return v.phys[r.PhysNum()]
	}
	return fr.virt[r.VirtNum()]
}

func (fr *frame) set(v *VM, r ir.Reg, val int64) {
	if r.IsPhys() {
		v.phys[r.PhysNum()] = val
		return
	}
	fr.virt[r.VirtNum()] = val
}

func (fr *frame) ensureSpill(i int) {
	for len(fr.spill) <= i {
		fr.spill = append(fr.spill, 0)
	}
}

func (fr *frame) ensureSave(i int) {
	for len(fr.save) <= i {
		fr.save = append(fr.save, 0)
	}
}
