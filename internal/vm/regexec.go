package vm

// regexec.go is the regcode engine's dispatch loop (see regcode.go for
// the compilation model). The hot loop charges the step budget once
// per straight-line quantum and performs zero per-instruction
// accounting; every operand access is a single index into the
// invocation's flat register bank, and every instruction but rOv and
// the rare generic const forms takes a single switch. When a quantum
// might cross the remaining budget, execution switches to rcareful, a
// per-instruction interpreter that reproduces the tree engine's halt
// accounting exactly — entering it guarantees the run ends inside
// that quantum, so the careful path never needs call, return, or
// branch dispatch.
//
// The bank's physical prefix is the register file while its frame
// runs. A call hands the caller's prefix to the callee, which copies
// it in at entry; at return the callee checks its callee-saved range
// against the caller's prefix, which still holds the values of entry,
// and copies its own prefix back over it. main's caller prefix is the
// VM's global register file, v.phys. A frame that raises an error
// copies its prefix into v.phys; frames whose errors merely propagate
// from a callee leave it alone, and a depth or arity error leaves the
// caller's values there.

import (
	"fmt"

	"repro/internal/ir"
)

// rcArena hands out frame banks from chunked backing arrays with
// LIFO mark/release, so steady-state execution allocates nothing.
// Handed-out banks are not zeroed; the caller initializes the physical
// prefix by copy and clears the rest.
//
// The first chunk holds first words (the VM sets it to the program's
// total bank length, enough for any non-recursive run); each later
// chunk doubles the last, up to rcChunkWords, and is never smaller
// than the frame that needs it.
type rcArena struct {
	chunks  [][]int64
	ci, off int
	first   int
}

const rcChunkWords = 1 << 12

func (a *rcArena) alloc(n int) []int64 {
	for {
		if a.ci == len(a.chunks) {
			sz := min(a.first, rcChunkWords)
			if k := len(a.chunks); k > 0 {
				sz = min(2*len(a.chunks[k-1]), rcChunkWords)
			}
			a.chunks = append(a.chunks, make([]int64, max(sz, n)))
		}
		if ch := a.chunks[a.ci]; a.off+n <= len(ch) {
			s := ch[a.off : a.off+n]
			a.off += n
			return s
		}
		a.ci, a.off = a.ci+1, 0
	}
}

func (a *rcArena) mark() (int, int)    { return a.ci, a.off }
func (a *rcArena) release(ci, off int) { a.ci, a.off = ci, off }

func (v *VM) runRegcode(args []int64) (int64, error) {
	c := v.rcode
	if c.main < 0 {
		return 0, fmt.Errorf("vm: main function %q not found", v.prog.Main)
	}
	if v.callDense == nil {
		v.callDense = make([]int64, len(c.funcs))
	}
	if v.cfg.CollectEdges && v.edgeDense == nil {
		v.edgeDense = make([]int64, len(c.edges))
	}
	val, err := v.rexec(c.main, args, v.phys[:c.physLen], 0)
	v.flushDense()
	return val, err
}

// flushDense materializes the dense call and edge counters into the
// public map-based Stats.Calls and EdgeCount, preserving the tree
// engine's observable shape (only invoked functions and traversed
// edges appear as keys), then resets them so repeated Runs accumulate.
func (v *VM) flushDense() {
	c := v.rcode
	for i, n := range v.callDense {
		if n != 0 {
			v.Stats.Calls[c.funcs[i].name] += n
			v.callDense[i] = 0
		}
	}
	for i, n := range v.edgeDense {
		if n != 0 {
			if e := c.edges[i]; e != nil {
				v.EdgeCount[e] += n
			}
			v.edgeDense[i] = 0
		}
	}
}

// flushSeg folds a dispatch segment's locally accumulated counters
// into the VM. Taking the counters by value (rather than closing over
// them) keeps them in registers inside the dispatch loop.
func (v *VM) flushSeg(n, loads, stores int64) {
	v.steps += n
	v.Stats.Instrs += n
	v.Stats.Loads += loads
	v.Stats.Stores += stores
}

// countOverhead bumps the Stats counter of an overhead class.
func (v *VM) countOverhead(ov uint8) {
	switch ov {
	case ovSpillLoad:
		v.Stats.SpillLoads++
	case ovSpillStore:
		v.Stats.SpillStores++
	case ovSave:
		v.Stats.Saves++
	case ovRestore:
		v.Stats.Restores++
	case ovJumpBlock:
		v.Stats.JumpBlockJmps++
	}
}

// convention reports the first callee-saved register a returning
// frame's bank holds a value in other than at entry, which the
// caller's prefix still holds.
func (v *VM) convention(fc *rcFunc, bank, caller []int64) error {
	for k := v.csFrom; k < v.csTo; k++ {
		if bank[k] != caller[k] {
			return fmt.Errorf("vm: %s violated callee-saved convention: %v changed from %d to %d",
				fc.name, ir.Phys(k), caller[k], bank[k])
		}
	}
	return nil
}

// rbin evaluates a two-source ALU operation, compares included, for
// careful mode. The dispatch loop inlines the same cases, the generic
// const-fused forms' too: rare as those are, a call on their path makes
// the compiler store the program counter to the stack at every
// dispatch.
func rbin(op ir.Op, x, y int64) int64 {
	switch op {
	case ir.OpAdd:
		return x + y
	case ir.OpSub:
		return x - y
	case ir.OpMul:
		return x * y
	case ir.OpDiv:
		if y != 0 {
			return x / y
		}
	case ir.OpRem:
		if y != 0 {
			return x % y
		}
	case ir.OpAnd:
		return x & y
	case ir.OpOr:
		return x | y
	case ir.OpXor:
		return x ^ y
	case ir.OpShl:
		return x << uint(y&63)
	case ir.OpShr:
		return x >> uint(y&63)
	case ir.OpCmpEQ:
		return b2i(x == y)
	case ir.OpCmpNE:
		return b2i(x != y)
	case ir.OpCmpLT:
		return b2i(x < y)
	case ir.OpCmpLE:
		return b2i(x <= y)
	case ir.OpCmpGT:
		return b2i(x > y)
	case ir.OpCmpGE:
		return b2i(x >= y)
	}
	return 0
}

// constOperands resolves a const-feeding fused form to the operand
// pair: 0 = other•K, 1 = K•other.
func constOperands(form int32, bank []int64, a int32, k int64) (int64, int64) {
	if form == 1 {
		return k, bank[a]
	}
	return bank[a], k
}

// rexec runs one function invocation to completion. caller is the
// caller's physical-register prefix (v.phys for main).
func (v *VM) rexec(fi int32, args, caller []int64, depth int) (int64, error) {
	c := v.rcode
	fc := &c.funcs[fi]
	if depth > maxCallDepth {
		copy(v.phys[:], caller)
		return 0, fmt.Errorf("vm: call depth exceeded in %s", fc.name)
	}
	if len(args) != len(fc.params) {
		copy(v.phys[:], caller)
		return 0, fmt.Errorf("vm: %s called with %d args, want %d", fc.name, len(args), len(fc.params))
	}
	v.callDense[fi]++

	mc, moff := v.arena.mark()
	bank := v.arena.alloc(fc.bankLen)
	pl := len(caller)
	copy(bank, caller)
	clear(bank[pl:])
	for i, p := range fc.params {
		bank[p] = args[i]
		if int(p) < pl {
			// A physical parameter is written at entry, so the
			// convention check must see it among the entry values.
			caller[p] = args[i]
		}
	}

	ins := fc.ins
	edges := v.edgeDense
	heap := v.heap
	pc := int(fc.entry)

	var n, loads, stores int64 // flushed at calls, returns, and errors
	var cond int64             // fused compare-branch condition, see fusedBr
	var err error              // the error fail raises
	budget := v.cfg.MaxSteps - v.steps
	if q := int64(ins[pc].qlen); n+q > budget {
		goto careful
	} else {
		n += q
	}

	for {
		in := &ins[pc]
		op := in.op
	dispatch:
		switch op {
		case ir.OpNop:
		case ir.OpConst:
			bank[in.dst] = in.imm
		case ir.OpMov:
			bank[in.dst] = bank[in.a]
		case ir.OpAdd:
			bank[in.dst] = bank[in.a] + bank[in.b]
		case ir.OpSub:
			bank[in.dst] = bank[in.a] - bank[in.b]
		case ir.OpMul:
			bank[in.dst] = bank[in.a] * bank[in.b]
		case ir.OpDiv:
			if d := bank[in.b]; d == 0 {
				bank[in.dst] = 0
			} else {
				bank[in.dst] = bank[in.a] / d
			}
		case ir.OpRem:
			if d := bank[in.b]; d == 0 {
				bank[in.dst] = 0
			} else {
				bank[in.dst] = bank[in.a] % d
			}
		case ir.OpAnd:
			bank[in.dst] = bank[in.a] & bank[in.b]
		case ir.OpOr:
			bank[in.dst] = bank[in.a] | bank[in.b]
		case ir.OpXor:
			bank[in.dst] = bank[in.a] ^ bank[in.b]
		case ir.OpShl:
			bank[in.dst] = bank[in.a] << uint(bank[in.b]&63)
		case ir.OpShr:
			bank[in.dst] = bank[in.a] >> uint(bank[in.b]&63)
		case ir.OpNeg:
			bank[in.dst] = -bank[in.a]
		case ir.OpNot:
			bank[in.dst] = ^bank[in.a]
		case ir.OpCmpEQ:
			bank[in.dst] = b2i(bank[in.a] == bank[in.b])
		case ir.OpCmpNE:
			bank[in.dst] = b2i(bank[in.a] != bank[in.b])
		case ir.OpCmpLT:
			bank[in.dst] = b2i(bank[in.a] < bank[in.b])
		case ir.OpCmpLE:
			bank[in.dst] = b2i(bank[in.a] <= bank[in.b])
		case ir.OpCmpGT:
			bank[in.dst] = b2i(bank[in.a] > bank[in.b])
		case ir.OpCmpGE:
			bank[in.dst] = b2i(bank[in.a] >= bank[in.b])
		case ir.OpLoad:
			loads++
			addr := bank[in.a] + in.imm
			if addr < 0 || addr >= int64(len(heap)) {
				n -= int64(in.qlen - 1)
				err = fmt.Errorf("vm: %s: load out of bounds at %d", fc.name, addr)
				goto fail
			}
			bank[in.dst] = heap[addr]
		case ir.OpStore:
			stores++
			addr := bank[in.a] + in.imm
			if addr < 0 || addr >= int64(len(heap)) {
				n -= int64(in.qlen - 1)
				err = fmt.Errorf("vm: %s: store out of bounds at %d", fc.name, addr)
				goto fail
			}
			heap[addr] = bank[in.b]
		case ir.OpSpillLoad, ir.OpRestore:
			loads++
			bank[in.dst] = bank[in.imm]
		case ir.OpSpillStore, ir.OpSave:
			stores++
			bank[in.imm] = bank[in.a]
		case ir.OpCall:
			cs := &fc.calls[in.imm]
			if cs.callee < 0 {
				err = fmt.Errorf("vm: %s calls undefined %q", fc.name, cs.name)
				goto fail
			}
			ab := len(v.argScratch)
			for _, a := range cs.args {
				v.argScratch = append(v.argScratch, bank[a])
			}
			v.flushSeg(n, loads, stores)
			n, loads, stores = 0, 0, 0
			var r int64
			r, err = v.rexec(cs.callee, v.argScratch[ab:], bank[:pl], depth+1)
			v.argScratch = v.argScratch[:ab]
			if err != nil {
				// The erroring frame left the register values in v.phys
				// already; propagate without clobbering them.
				v.arena.release(mc, moff)
				return 0, err
			}
			budget = v.cfg.MaxSteps - v.steps
			if in.dst >= 0 {
				bank[in.dst] = r
			}
			pc++
			if q := int64(ins[pc].qlen); n+q > budget {
				goto careful
			} else {
				n += q
			}
			continue
		case ir.OpRet:
			var rv int64
			if in.a >= 0 {
				rv = bank[in.a]
			}
			v.flushSeg(n, loads, stores)
			if err = v.convention(fc, bank, caller); err != nil {
				copy(v.phys[:], bank[:pl])
				v.arena.release(mc, moff)
				return 0, err
			}
			copy(caller, bank)
			v.arena.release(mc, moff)
			return rv, nil
		case ir.OpBr:
			if bank[in.a] != 0 {
				if edges != nil {
					edges[in.c]++
				}
				pc = int(in.t1)
			} else {
				if edges != nil {
					edges[in.c+1]++
				}
				pc = int(in.t2)
			}
			if q := int64(ins[pc].qlen); n+q > budget {
				goto careful
			} else {
				n += q
			}
			continue
		case ir.OpJmp:
			if edges != nil {
				edges[in.c]++
			}
			pc = int(in.t1)
			if q := int64(ins[pc].qlen); n+q > budget {
				goto careful
			} else {
				n += q
			}
			continue
		case rCmpEQBr:
			cond = b2i(bank[in.a] == bank[in.b])
			goto fusedBr
		case rCmpNEBr:
			cond = b2i(bank[in.a] != bank[in.b])
			goto fusedBr
		case rCmpLTBr:
			cond = b2i(bank[in.a] < bank[in.b])
			goto fusedBr
		case rCmpLEBr:
			cond = b2i(bank[in.a] <= bank[in.b])
			goto fusedBr
		case rCmpGTBr:
			cond = b2i(bank[in.a] > bank[in.b])
			goto fusedBr
		case rCmpGEBr:
			cond = b2i(bank[in.a] >= bank[in.b])
			goto fusedBr
		case rAddK:
			bank[in.b] = in.imm
			bank[in.dst] = bank[in.a] + in.imm
		case rSubK:
			bank[in.b] = in.imm
			bank[in.dst] = bank[in.a] - in.imm
		case rMulK:
			bank[in.b] = in.imm
			bank[in.dst] = bank[in.a] * in.imm
		case rAndK:
			bank[in.b] = in.imm
			bank[in.dst] = bank[in.a] & in.imm
		case rOrK:
			bank[in.b] = in.imm
			bank[in.dst] = bank[in.a] | in.imm
		case rXorK:
			bank[in.b] = in.imm
			bank[in.dst] = bank[in.a] ^ in.imm
		case rConstBin, rConstBinSpillSt, rConstBinSpillStOv:
			bank[in.b] = in.imm
			x, y := constOperands(in.t2, bank, in.a, in.imm)
			var r int64
			switch ir.Op(in.t1) {
			case ir.OpAdd:
				r = x + y
			case ir.OpSub:
				r = x - y
			case ir.OpMul:
				r = x * y
			case ir.OpDiv:
				if y != 0 {
					r = x / y
				}
			case ir.OpRem:
				if y != 0 {
					r = x % y
				}
			case ir.OpAnd:
				r = x & y
			case ir.OpOr:
				r = x | y
			case ir.OpXor:
				r = x ^ y
			case ir.OpShl:
				r = x << uint(y&63)
			case ir.OpShr:
				r = x >> uint(y&63)
			case ir.OpCmpEQ:
				r = b2i(x == y)
			case ir.OpCmpNE:
				r = b2i(x != y)
			case ir.OpCmpLT:
				r = b2i(x < y)
			case ir.OpCmpLE:
				r = b2i(x <= y)
			case ir.OpCmpGT:
				r = b2i(x > y)
			case ir.OpCmpGE:
				r = b2i(x >= y)
			}
			bank[in.dst] = r
			if op != rConstBin {
				stores++
				if op == rConstBinSpillStOv {
					v.Stats.SpillStores++
				}
				bank[in.c] = r
			}
		case rCmpEQKBr:
			bank[in.b] = in.imm
			cond = b2i(bank[in.a] == in.imm)
			goto fusedBr
		case rCmpNEKBr:
			bank[in.b] = in.imm
			cond = b2i(bank[in.a] != in.imm)
			goto fusedBr
		case rCmpLTKBr:
			bank[in.b] = in.imm
			cond = b2i(bank[in.a] < in.imm)
			goto fusedBr
		case rCmpLEKBr:
			bank[in.b] = in.imm
			cond = b2i(bank[in.a] <= in.imm)
			goto fusedBr
		case rCmpGTKBr:
			bank[in.b] = in.imm
			cond = b2i(bank[in.a] > in.imm)
			goto fusedBr
		case rCmpGEKBr:
			bank[in.b] = in.imm
			cond = b2i(bank[in.a] >= in.imm)
			goto fusedBr
		case rLatchEQ:
			k1 := int64(in.x)
			bank[in.b] = k1
			bank[in.a] += k1
			k2 := int64(int32(in.imm))
			bank[int32(in.imm>>32)] = k2
			cond = b2i(bank[in.a] == k2)
			goto fusedBr
		case rLatchNE:
			k1 := int64(in.x)
			bank[in.b] = k1
			bank[in.a] += k1
			k2 := int64(int32(in.imm))
			bank[int32(in.imm>>32)] = k2
			cond = b2i(bank[in.a] != k2)
			goto fusedBr
		case rLatchLT:
			k1 := int64(in.x)
			bank[in.b] = k1
			bank[in.a] += k1
			k2 := int64(int32(in.imm))
			bank[int32(in.imm>>32)] = k2
			cond = b2i(bank[in.a] < k2)
			goto fusedBr
		case rLatchLE:
			k1 := int64(in.x)
			bank[in.b] = k1
			bank[in.a] += k1
			k2 := int64(int32(in.imm))
			bank[int32(in.imm>>32)] = k2
			cond = b2i(bank[in.a] <= k2)
			goto fusedBr
		case rLatchGT:
			k1 := int64(in.x)
			bank[in.b] = k1
			bank[in.a] += k1
			k2 := int64(int32(in.imm))
			bank[int32(in.imm>>32)] = k2
			cond = b2i(bank[in.a] > k2)
			goto fusedBr
		case rLatchGE:
			k1 := int64(in.x)
			bank[in.b] = k1
			bank[in.a] += k1
			k2 := int64(int32(in.imm))
			bank[int32(in.imm>>32)] = k2
			cond = b2i(bank[in.a] >= k2)
			goto fusedBr
		case rOv:
			v.countOverhead(in.ov)
			op = ir.Op(in.x)
			goto dispatch
		case rFellOff:
			// Synthetic: qlen never counted it, so n is already right.
			err = fmt.Errorf("vm: %s: block %s fell off the end", fc.name, fc.block(int32(pc)))
			goto fail
		default: // rBadOp and anything unexpected
			err = fmt.Errorf("vm: %s: unknown opcode %v", fc.name, ir.Op(in.a))
			goto fail
		}
		pc++
		continue

		// fusedBr finishes every fused compare-branch superinstruction:
		// store the condition, count the taken edge, branch, and charge
		// the target's quantum.
	fusedBr:
		bank[in.dst] = cond
		if cond != 0 {
			if edges != nil {
				edges[in.c]++
			}
			pc = int(in.t1)
		} else {
			if edges != nil {
				edges[in.c+1]++
			}
			pc = int(in.t2)
		}
		if q := int64(ins[pc].qlen); n+q > budget {
			goto careful
		} else {
			n += q
		}
	}

	// fail raises err from this frame: the counters so far are folded
	// in and the register values copied out.
fail:
	v.flushSeg(n, loads, stores)
	copy(v.phys[:], bank[:pl])
	v.arena.release(mc, moff)
	return 0, err

careful:
	val, err := v.rcareful(fc, bank, pc, n, loads, stores, budget)
	copy(v.phys[:], bank[:pl])
	v.arena.release(mc, moff)
	return val, err
}

// rcareful executes from a quantum head whose full length may not fit
// the remaining step budget, with the tree engine's per-instruction
// accounting. Entering it guarantees the run ends within this quantum:
// straight-line quanta admit no early exit, so the budget runs out (or
// an error fires) at or before the quantum-ending instruction — which
// is why the control-flow opcodes below are unreachable.
func (v *VM) rcareful(fc *rcFunc, bank []int64, pc int, n, loads, stores, budget int64) (int64, error) {
	ins := fc.ins
	heap := v.heap
	var err error
	for {
		in := &ins[pc]
		n++
		// Falling off a block's end raises its own error even at the
		// budget's edge: the tree engine raises it without a step.
		if n > budget && in.op != rFellOff {
			goto halt
		}
		op := in.op
	dispatch:
		switch op {
		case ir.OpNop:
		case ir.OpConst:
			bank[in.dst] = in.imm
		case ir.OpMov:
			bank[in.dst] = bank[in.a]
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
			ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE:
			bank[in.dst] = rbin(op, bank[in.a], bank[in.b])
		case ir.OpNeg:
			bank[in.dst] = -bank[in.a]
		case ir.OpNot:
			bank[in.dst] = ^bank[in.a]
		case ir.OpLoad:
			loads++
			addr := bank[in.a] + in.imm
			if addr < 0 || addr >= int64(len(heap)) {
				err = fmt.Errorf("vm: %s: load out of bounds at %d", fc.name, addr)
				goto fail
			}
			bank[in.dst] = heap[addr]
		case ir.OpStore:
			stores++
			addr := bank[in.a] + in.imm
			if addr < 0 || addr >= int64(len(heap)) {
				err = fmt.Errorf("vm: %s: store out of bounds at %d", fc.name, addr)
				goto fail
			}
			heap[addr] = bank[in.b]
		case ir.OpSpillLoad, ir.OpRestore:
			loads++
			bank[in.dst] = bank[in.imm]
		case ir.OpSpillStore, ir.OpSave:
			stores++
			bank[in.imm] = bank[in.a]
		case rCmpEQBr, rCmpNEBr, rCmpLTBr, rCmpLEBr, rCmpGTBr, rCmpGEBr:
			bank[in.dst] = rbin(ir.OpCmpEQ+op-rCmpEQBr, bank[in.a], bank[in.b])
			n++
			if n > budget {
				goto halt
			}
			panic("vm: regcode careful mode survived a fused branch")
		case rConstBin, rAddK, rSubK, rMulK, rAndK, rOrK, rXorK:
			bank[in.b] = in.imm
			n++
			if n > budget {
				goto halt
			}
			x, y := constOperands(in.t2, bank, in.a, in.imm)
			bank[in.dst] = rbin(ir.Op(in.t1), x, y)
		case rCmpEQKBr, rCmpNEKBr, rCmpLTKBr, rCmpLEKBr, rCmpGTKBr, rCmpGEKBr:
			bank[in.b] = in.imm
			n++
			if n > budget {
				goto halt
			}
			bank[in.dst] = rbin(ir.OpCmpEQ+op-rCmpEQKBr, bank[in.a], in.imm)
			n++
			if n > budget {
				goto halt
			}
			panic("vm: regcode careful mode survived a fused branch")
		case rLatchEQ, rLatchNE, rLatchLT, rLatchLE, rLatchGT, rLatchGE:
			bank[in.b] = int64(in.x)
			n++
			if n > budget {
				goto halt
			}
			bank[in.a] += bank[in.b]
			n++
			if n > budget {
				goto halt
			}
			k := int32(in.imm >> 32)
			bank[k] = int64(int32(in.imm))
			n++
			if n > budget {
				goto halt
			}
			bank[in.dst] = rbin(ir.OpCmpEQ+op-rLatchEQ, bank[in.a], bank[k])
			n++
			if n > budget {
				goto halt
			}
			panic("vm: regcode careful mode survived a fused branch")
		case rConstBinSpillSt, rConstBinSpillStOv:
			bank[in.b] = in.imm
			n++
			if n > budget {
				goto halt
			}
			x, y := constOperands(in.t2, bank, in.a, in.imm)
			res := rbin(ir.Op(in.t1), x, y)
			bank[in.dst] = res
			n++
			if n > budget {
				goto halt
			}
			stores++
			if op == rConstBinSpillStOv {
				v.Stats.SpillStores++
			}
			bank[in.c] = res
		case rOv:
			v.countOverhead(in.ov)
			op = ir.Op(in.x)
			goto dispatch
		case rFellOff:
			n-- // synthetic: not an executed instruction
			err = fmt.Errorf("vm: %s: block %s fell off the end", fc.name, fc.block(int32(pc)))
			goto fail
		case ir.OpCall, ir.OpRet, ir.OpBr, ir.OpJmp:
			panic("vm: regcode careful mode reached a quantum boundary")
		default: // rBadOp and anything unexpected
			err = fmt.Errorf("vm: %s: unknown opcode %v", fc.name, ir.Op(in.a))
			goto fail
		}
		pc++
	}

halt:
	// The halting instruction counts toward steps but was never
	// executed, so it stays out of Stats.Instrs.
	v.flushSeg(n, loads, stores)
	v.Stats.Instrs--
	return 0, haltErr(fc.name, fc.block(int32(pc)))

fail:
	v.flushSeg(n, loads, stores)
	return 0, err
}
