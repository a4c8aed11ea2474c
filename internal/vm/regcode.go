package vm

// regcode.go lowers an *ir.Program into register-transfer code, the
// compiled engine's input (regexec.go). Each function is compiled
// exactly once, at vm.New:
//
//   - Unified register bank. Each invocation executes against one flat
//     []int64 holding the physical registers, the virtual registers,
//     the spill slots, and the save slots, in that order. The compiler
//     assigns every operand its direct bank index, so the dispatch loop
//     performs a single slice index per operand — no phys-vs-frame
//     branch, no slot rebasing at run time. Every bank of a program
//     has the same physical prefix, as long as the longest any of its
//     functions (or the convention checker) needs, so a call hands the
//     caller's prefix straight to the callee, which copies it in at
//     entry and back into the caller's bank at return; only main's
//     prefix comes from and goes to the VM's global register file.
//
//   - Pre-resolved operands. Branch targets are instruction indices;
//     the CFG edge each branch traverses is a dense edge index, so edge
//     profiling increments a slice instead of a map; callees are dense
//     function indices. An instruction with an overhead class (spill
//     load/store, save, restore, jump-block jump) compiles to rOv,
//     which counts the class and dispatches again on the plain opcode
//     it carries, so no other instruction tests for a class.
//
//   - Superinstructions. The compiler fuses compare+branch and
//     const+binop pairs, const+compare+branch and const+binop+spill.st
//     triples, and the canonical 5-op loop latch (const increment,
//     in-place add, const bound, compare, branch). The const+binop
//     pair has one opcode per operator for x•K (and K•x when the
//     operator commutes); const+compare+branch has one opcode per
//     relation comparing a register against the immediate, mirroring
//     the relation for K•x. K•K is x•K whose x is the const register.
//     Only the rare remaining shapes (K−x, division, shifts, compares
//     feeding no branch, the spill-store triple) go through the generic
//     form that switches again on the operator. Fused forms execute
//     every constituent's architectural effect literally, in order,
//     through the bank, so aliased operands behave exactly as in the
//     unfused sequence.
//
//   - Quantum-batched step accounting. Instructions are grouped into
//     quanta — maximal straight-line runs ending at a terminator,
//     call, or trap. Each instruction carries the IR-instruction weight
//     from itself through its quantum's end (qlen); the dispatch loop
//     charges a whole quantum against the step budget at its head and
//     touches no counter per instruction. When a quantum cannot fully
//     fit the remaining budget the loop falls back to a per-instruction
//     careful mode that reproduces the tree interpreter's halt
//     accounting exactly (regexec.go).
//
//   - Exact sizing. A counting pass runs the fusion matcher and
//     records its decisions for emission to replay, so every array —
//     instructions, block starts, call sites, argument lists, the edge
//     table — is allocated once at its final length, and branch
//     targets are known before emission.
//
// Malformed programs the tree interpreter only rejects when execution
// reaches the bad spot (undefined callees, unknown opcodes, blocks
// without terminators, branches to foreign blocks) compile into trap
// instructions that raise the identical error if — and only if — they
// execute.

import (
	"math"
	"sort"

	"repro/internal/ir"
)

// Regcode opcode space. Plain instructions reuse their ir.Op value;
// the compiled-only forms (traps, fusions) follow contiguously so the
// dispatch switch covers a dense range and compiles to a single jump
// table instead of a branch tree. Fused forms are grouped by weight
// (see rweight).
const (
	// Traps. They reproduce the tree interpreter's runtime errors for
	// malformed programs lazily.
	rBadOp   ir.Op = ir.OpJmp + 1 + iota // unknown opcode (original in .a)
	rFellOff                             // block without terminator
	// Compare feeding the block's conditional branch (pair fusion):
	// dst/a/b from the compare, t1/t2 targets, c = edge slots.
	rCmpEQBr
	rCmpNEBr
	rCmpLTBr
	rCmpLEBr
	rCmpGTBr
	rCmpGEBr
	// Constant materialized straight into a binary operation, the
	// generic form: b = const register, imm = constant, dst/a from the
	// binop, t1 = inner opcode, t2 = operand form (0: a•K, 1: K•a).
	rConstBin
	// const + binop specialized by operator: b = const imm; dst = a op
	// imm. Operands as rConstBin, whose t1/t2 they keep for careful
	// mode; K•a compiles here only when op commutes.
	rAddK
	rSubK
	rMulK
	rAndK
	rOrK
	rXorK
	// const + compare + branch against the immediate: b = const imm;
	// dst = a rel imm; branch on dst. K•x compiles with the relation
	// mirrored. t1/t2 = targets, c = edge slots.
	rCmpEQKBr
	rCmpNEKBr
	rCmpLTKBr
	rCmpLEKBr
	rCmpGTKBr
	rCmpGEKBr
	// const + binop + spill.st: b = const imm; dst = t1<op,form t2> a;
	// bank[c] = dst. The Ov variant's store carries the spill flag and
	// bumps Stats.SpillStores when the third constituent executes.
	rConstBinSpillSt
	rConstBinSpillStOv
	// The canonical 5-op loop latch:
	//	b = const K1; a = add a, b; k = const K2; dst = cmp a, k;
	//	br dst, t1, t2
	// x = K1, imm packs k's bank index (high 32) and K2 (low 32),
	// c = edge slots.
	rLatchEQ
	rLatchNE
	rLatchLT
	rLatchLE
	rLatchGT
	rLatchGE
	// A plain instruction with an overhead class: ov = the class, x =
	// the plain opcode, every other field as that opcode compiles.
	rOv
)

// kOps maps the operators with an immediate form to their opcodes.
var kOps = [...]ir.Op{ir.OpAdd: rAddK, ir.OpSub: rSubK, ir.OpMul: rMulK,
	ir.OpAnd: rAndK, ir.OpOr: rOrK, ir.OpXor: rXorK}

// mirror maps a relation to the one that holds with its operands
// swapped.
var mirror = [...]ir.Op{ir.OpCmpEQ: ir.OpCmpEQ, ir.OpCmpNE: ir.OpCmpNE,
	ir.OpCmpLT: ir.OpCmpGT, ir.OpCmpLE: ir.OpCmpGE, ir.OpCmpGT: ir.OpCmpLT, ir.OpCmpGE: ir.OpCmpLE}

// packI32 packs two int32-range values into one imm, k1 high.
func packI32(k1, k2 int64) int64 {
	return int64(uint64(uint32(int32(k1)))<<32 | uint64(uint32(int32(k2))))
}

// Overhead classes, precomputed from (Op, Flags) with exactly the
// tree interpreter's attribution rules.
const (
	ovNone uint8 = iota
	ovSpillLoad
	ovSpillStore
	ovSave
	ovRestore
	ovJumpBlock
)

func ovClass(in *ir.Instr) uint8 {
	switch {
	case in.Flags == 0:
		return ovNone
	case in.Flags&ir.FlagSpill != 0 && in.Op == ir.OpSpillLoad:
		return ovSpillLoad
	case in.Flags&ir.FlagSpill != 0 && in.Op == ir.OpSpillStore:
		return ovSpillStore
	case in.Flags&ir.FlagSaveRestore != 0 && in.Op == ir.OpSave:
		return ovSave
	case in.Flags&ir.FlagSaveRestore != 0 && in.Op == ir.OpRestore:
		return ovRestore
	case in.Flags&ir.FlagJumpBlock != 0:
		return ovJumpBlock
	}
	return ovNone
}

// rinst is one pre-decoded register-transfer instruction. All register
// operands are direct bank indices (-1 = absent). Field meaning varies
// by op as documented on the opcode constants; for plain ops:
//
//	const                 imm = constant
//	load/store            imm = address offset
//	spill.*/save/restore  imm = bank index of the slot
//	call                  imm = index into the function's call table
//	br                    t1/t2 = then/else instruction indices,
//	                      c = edge slots: c counts then, c+1 else
//	jmp                   t1 = target instruction index, c = edge slot
//
// qlen drives the quantum-batched step accounting: it is the total
// IR-instruction weight from this instruction through its quantum's
// end — the full quantum length when read at a quantum head (block
// starts and instructions following a call). qlen minus the
// instruction's own weight is what an error raised mid-quantum rolls
// back from the upfront charge.
type rinst struct {
	op   ir.Op
	ov   uint8 // overhead class of rOv
	x    int16 // small operand of a fused form; rOv's plain opcode
	dst  int32
	a    int32
	b    int32
	c    int32
	t1   int32
	t2   int32
	qlen int32
	imm  int64
}

// rcCall is one call site's side data.
type rcCall struct {
	callee int32  // dense function index, -1 if undefined
	name   string // callee name, for the undefined-function error
	args   []int32
}

// rcFunc is one compiled function.
type rcFunc struct {
	name   string
	ins    []rinst
	entry  int32
	params []int32 // parameter bank indices
	calls  []rcCall

	// The bank layout: [0, rcProgram.physLen) is the physical-register
	// prefix handed over at calls; virtuals, spill slots (from
	// spillBase), and save slots (from saveBase) follow. bankLen is the
	// full frame size.
	spillBase int64
	saveBase  int64
	bankLen   int

	// starts[k] is the first instruction of blocks[k], the function's
	// blocks in layout order at compile time, plus a final entry for
	// the "?" block of a function without an entry block. Error
	// messages only.
	starts []int32
	blocks []*ir.Block

	// Counting-pass results that size the emission pass.
	nArgs, nEdges int
}

// block returns the name of the block containing instruction pc.
func (fc *rcFunc) block(pc int32) string {
	k := sort.Search(len(fc.starts), func(k int) bool { return fc.starts[k] > pc }) - 1
	if k < 0 || k >= len(fc.blocks) {
		return "?"
	}
	return fc.blocks[k].Name
}

// rcProgram is a compiled program.
type rcProgram struct {
	funcs []rcFunc
	main  int32
	// physLen is the length of every bank's physical prefix: the
	// highest physical register any function references, plus one, and
	// at least the convention checker's range.
	physLen int
	// edges maps dense edge slots to CFG edges, for profiling. Every
	// branch owns two consecutive slots (then, else) and every jump
	// one; a slot is nil when its branch has no matching CFG edge,
	// which the tree interpreter silently skips counting.
	edges []*ir.Edge

	// usesHeap reports whether any instruction can address the flat
	// heap; bankSum is the total bank length of all functions, which
	// bounds the frames of any non-recursive run.
	usesHeap bool
	bankSum  int
}

// edgeSlots assigns consecutive dense edge slots to es and returns
// the first.
func (c *rcProgram) edgeSlots(es ...*ir.Edge) int32 {
	c.edges = append(c.edges, es...)
	return int32(len(c.edges) - len(es))
}

// compileRegProgram lowers every function. It never fails: malformed
// constructs become traps that error at execution time, matching the
// tree interpreter's lazy error discipline. physMin forces the
// physical prefix to cover at least [0, physMin) — the convention
// checker needs the whole callee-saved range resident in every bank,
// so the VM passes its csTo when a machine is configured.
func compileRegProgram(p *ir.Program, physMin int) *rcProgram {
	funcs := p.FuncsInOrder()
	c := &rcProgram{main: -1, funcs: make([]rcFunc, len(funcs)), physLen: physMin}
	index := make(map[string]int32, len(funcs))
	for i, f := range funcs {
		index[f.Name] = int32(i)
	}
	if mi, ok := index[p.Main]; ok {
		c.main = mi
	}
	// kinds records the counting pass's fusion decisions, one per
	// emitted instruction, for emission to replay.
	n := 0
	for _, f := range funcs {
		n += f.Instrs()
	}
	kinds := make([]fusion, 0, n)
	nEdges := 0
	for i, f := range funcs {
		fc := &c.funcs[i]
		kinds = c.sizeFunc(f, fc, kinds)
		nEdges += fc.nEdges
	}
	// The shared prefix length is known only now: place every bank's
	// frame after it.
	for i := range c.funcs {
		fc := &c.funcs[i]
		fc.spillBase += int64(c.physLen)
		fc.saveBase += int64(c.physLen)
		fc.bankLen += c.physLen
		c.bankSum += fc.bankLen
	}
	c.edges = make([]*ir.Edge, 0, nEdges)
	var pos []int32
	for i, f := range funcs {
		pos, kinds = c.emitFunc(f, &c.funcs[i], index, pos, kinds)
	}
	return c
}

// fusion names the superinstruction shape matchFusion found.
type fusion uint8

const (
	fuseNone       fusion = iota
	fuseLatch             // const; in-place add; const; cmp; br
	fuseConstCmpBr        // const; cmp; br
	fuseConstBinSt        // const; binop; spill.st
	fuseCmpBr             // cmp; br
	fuseConstBin          // const; binop
)

// width is the number of IR instructions a fusion covers.
func (k fusion) width() int {
	switch k {
	case fuseLatch:
		return 5
	case fuseConstCmpBr, fuseConstBinSt:
		return 3
	case fuseCmpBr, fuseConstBin:
		return 2
	}
	return 1
}

// plain reports whether in may be fused: no overhead class, and a
// destination register.
func plain(in *ir.Instr) bool { return ovClass(in) == ovNone && in.Dst.IsValid() }

// matchFusion finds the superinstruction starting at ins[i], greedily
// (longest pattern first). The counting pass and emission share it,
// so both see exactly the same instruction stream. slotLimit is the
// highest spill slot the spill-store triple accepts: its bank index
// must fit an int32.
func matchFusion(ins []*ir.Instr, i int, slotLimit int64) fusion {
	in := ins[i]
	switch {
	case in.Op == ir.OpConst:
		if !plain(in) || i+1 >= len(ins) {
			return fuseNone
		}
		if i+4 < len(ins) && in.Imm == int64(int16(in.Imm)) {
			add, c2, cmp, br := ins[i+1], ins[i+2], ins[i+3], ins[i+4]
			if add.Op == ir.OpAdd && plain(add) && add.Dst == add.Src1 && add.Src2 == in.Dst &&
				c2.Op == ir.OpConst && plain(c2) && c2.Imm == int64(int32(c2.Imm)) &&
				cmp.Op.IsCompare() && plain(cmp) && cmp.Src1 == add.Dst && cmp.Src2 == c2.Dst &&
				br.Op == ir.OpBr && ovClass(br) == ovNone && br.Src1 == cmp.Dst {
				return fuseLatch
			}
		}
		if i+2 < len(ins) {
			mid, last := ins[i+1], ins[i+2]
			if mid.Op.IsCompare() && plain(mid) &&
				last.Op == ir.OpBr && ovClass(last) == ovNone && last.Src1 == mid.Dst {
				if form, _ := constForm(in.Dst, mid.Src1, mid.Src2); form >= 0 {
					return fuseConstCmpBr
				}
			}
			if last.Op == ir.OpSpillStore && mid.Op.IsBinary() && plain(mid) {
				stOv := ovClass(last)
				if (stOv == ovNone || stOv == ovSpillStore) && last.Src1 == mid.Dst &&
					last.Imm >= 0 && last.Imm <= slotLimit {
					if form, _ := constForm(in.Dst, mid.Src1, mid.Src2); form >= 0 {
						return fuseConstBinSt
					}
				}
			}
		}
		if next := ins[i+1]; next.Op.IsBinary() && plain(next) {
			if form, _ := constForm(in.Dst, next.Src1, next.Src2); form >= 0 {
				return fuseConstBin
			}
		}
	case in.Op.IsCompare():
		if i+1 < len(ins) && plain(in) {
			if next := ins[i+1]; next.Op == ir.OpBr && ovClass(next) == ovNone && next.Src1 == in.Dst {
				return fuseCmpBr
			}
		}
	}
	return fuseNone
}

// sizeFunc is the counting pass. In one walk over the function it
// sizes the bank — it raises the program's physical prefix to cover
// the registers the function can touch, virtual space covers only
// referenced virtuals, and declared slot counts are grown over
// out-of-range references, so frames never grow mid-run — and runs
// the fusion matcher to count the instructions, call sites,
// arguments, and edges emission produces, recording each block's
// first instruction. It appends its fusion decisions to kinds. The
// frame offsets it leaves in fc are relative to the end of the
// physical prefix, whose length is final only once every function
// is sized.
func (c *rcProgram) sizeFunc(f *ir.Func, fc *rcFunc, kinds []fusion) []fusion {
	fc.name = f.Name
	sz := bankSize{phys: c.physLen}
	for _, r := range f.Params {
		sz.track(r)
	}
	nb := len(f.Blocks)
	if nb == 0 || f.Entry == nil {
		nb++ // the no-entry trap's "?" block
	}
	fc.starts = make([]int32, nb)
	spillSlots, saveSlots := f.SpillSlots, f.SaveSlots
	nCalls, n := 0, 0
	// The spill slot bank indices are only known once every function
	// is sized, so the walk matches the spill-store triple on slots
	// that fit an int32 alone and checks the largest one afterwards.
	stMax := int64(-1)
	k0 := len(kinds)
	for k, b := range f.Blocks {
		fc.starts[k] = int32(n)
		bi := b.Instrs
		for i := 0; i < len(bi); n++ {
			kind := matchFusion(bi, i, math.MaxInt32)
			kinds = append(kinds, kind)
			w := kind.width()
			if kind == fuseConstBinSt {
				stMax = max(stMax, bi[i+2].Imm)
			}
			for _, in := range bi[i : i+w] {
				sz.track(in.Dst)
				sz.track(in.Src1)
				sz.track(in.Src2)
				for _, a := range in.Args {
					sz.track(a)
				}
				switch in.Op {
				case ir.OpSpillLoad, ir.OpSpillStore:
					if n := int(in.Imm) + 1; n > spillSlots {
						spillSlots = n
					}
				case ir.OpSave, ir.OpRestore:
					if n := int(in.Imm) + 1; n > saveSlots {
						saveSlots = n
					}
				case ir.OpLoad, ir.OpStore:
					c.usesHeap = true
				case ir.OpCall:
					nCalls++
					fc.nArgs += len(in.Args)
				case ir.OpBr:
					fc.nEdges += 2
				case ir.OpJmp:
					fc.nEdges++
				}
			}
			i += w
		}
		n++ // the fell-off-the-end trap
	}
	if nb > len(f.Blocks) {
		fc.starts[nb-1] = int32(n)
		n++
	}
	c.physLen = sz.phys
	fc.spillBase = int64(sz.virt)
	fc.saveBase = fc.spillBase + int64(spillSlots)
	fc.bankLen = sz.virt + spillSlots + saveSlots
	// No prefix is longer than the physical register space, so a slot
	// within this limit keeps its bank index in an int32 whatever
	// length the prefix ends up with.
	if limit := math.MaxInt32 - int64(ir.VirtBase) - fc.spillBase; stMax > limit {
		// A triple's slot may overflow its bank index: match again with
		// the real limit.
		kinds = kinds[:k0]
		n = 0
		for k, b := range f.Blocks {
			fc.starts[k] = int32(n)
			for i := 0; i < len(b.Instrs); n++ {
				kind := matchFusion(b.Instrs, i, limit)
				kinds = append(kinds, kind)
				i += kind.width()
			}
			n++
		}
		if nb > len(f.Blocks) {
			fc.starts[nb-1] = int32(n)
			n++
		}
	}
	fc.ins = make([]rinst, n)
	fc.calls = make([]rcCall, 0, nCalls)
	return kinds
}

// reg maps an IR register to its bank index.
func (c *rcProgram) reg(r ir.Reg) int32 {
	switch {
	case r >= ir.VirtBase:
		return int32(c.physLen) + int32(r-ir.VirtBase)
	case r >= 0:
		return int32(r)
	}
	return -1
}

// bankSize accumulates the register part of a bank: the physical
// prefix up to the highest referenced physical register, and the
// virtual space up to the highest referenced virtual.
type bankSize struct{ phys, virt int }

func (s *bankSize) track(r ir.Reg) {
	if r >= ir.VirtBase {
		s.virt = max(s.virt, int(r-ir.VirtBase)+1)
	} else if r >= 0 {
		s.phys = max(s.phys, int(r)+1)
	}
}

// blockIndex returns b's position in f.Blocks, or -1 if b is not one of
// f's blocks. pos maps block IDs to positions in f; an entry is trusted
// only if it points back at b, so a stale or colliding ID falls back to
// a scan.
func blockIndex(f *ir.Func, b *ir.Block, pos []int32) int32 {
	if b == nil {
		return -1
	}
	if b.ID >= 0 && b.ID < len(pos) {
		if k := pos[b.ID]; int(k) < len(f.Blocks) && f.Blocks[k] == b {
			return k
		}
	}
	for k, x := range f.Blocks {
		if x == b {
			return int32(k)
		}
	}
	return -1
}

// emitFunc is the emission pass: it fills the arrays sizeFunc
// allocated, replaying sizeFunc's fusion decisions from kinds and
// resolving branch targets through the block starts, then stores the
// quantum weights. pos is the block-ID scratch, reused across the
// program's functions. emitFunc returns pos and the unread kinds.
func (c *rcProgram) emitFunc(f *ir.Func, fc *rcFunc, index map[string]int32, pos []int32, kinds []fusion) ([]int32, []fusion) {
	spillBase, saveBase := fc.spillBase, fc.saveBase
	fc.params = make([]int32, len(f.Params))
	for i, r := range f.Params {
		fc.params[i] = c.reg(r)
	}

	// Block IDs are normally dense layout positions; index them so
	// branch targets resolve without a map.
	for k, b := range f.Blocks {
		if b.ID < 0 || b.ID > 2*len(f.Blocks) {
			continue // sparse IDs: blockIndex scans instead
		}
		for b.ID >= len(pos) {
			pos = append(pos, -1)
		}
		pos[b.ID] = int32(k)
	}
	target := func(t *ir.Block) (int32, bool) {
		k := blockIndex(f, t, pos)
		if k < 0 {
			return 0, false
		}
		return fc.starts[k], true
	}
	// branch resolves a conditional branch's targets and edges into d,
	// or turns d into a trap when a target lies outside the function
	// (the tree interpreter crashes on those).
	branch := func(d *rinst, b *ir.Block, br *ir.Instr) {
		t1, ok1 := target(br.Then)
		t2, ok2 := target(br.Else)
		if !ok1 || !ok2 {
			*d = rinst{op: rBadOp, a: int32(br.Op)}
			return
		}
		d.t1, d.t2 = t1, t2
		d.c = c.edgeSlots(b.SuccEdge(br.Then), b.SuccEdge(br.Else))
	}

	args := make([]int32, 0, fc.nArgs)
	fc.blocks = f.Blocks
	ins := fc.ins
	pc := 0
	for _, b := range f.Blocks {
		bi := b.Instrs
		for i := 0; i < len(bi); pc++ {
			in := bi[i]
			d := &ins[pc]
			kind := kinds[0]
			kinds = kinds[1:]
			i += kind.width()
			switch kind {
			case fuseLatch:
				add, c2, cmp := bi[i-4], bi[i-3], bi[i-2]
				*d = rinst{op: rLatchEQ + (cmp.Op - ir.OpCmpEQ), x: int16(in.Imm),
					dst: c.reg(cmp.Dst), a: c.reg(add.Dst), b: c.reg(in.Dst),
					imm: packI32(int64(c.reg(c2.Dst)), c2.Imm)}
				branch(d, b, bi[i-1])
				continue
			case fuseConstCmpBr:
				cmp := bi[i-2]
				form, other := constForm(in.Dst, cmp.Src1, cmp.Src2)
				rel := cmp.Op
				if form == 1 {
					rel = mirror[rel]
				}
				*d = rinst{op: rCmpEQKBr + (rel - ir.OpCmpEQ),
					dst: c.reg(cmp.Dst), a: c.reg(other), b: c.reg(in.Dst), imm: in.Imm}
				branch(d, b, bi[i-1])
				continue
			case fuseConstBinSt:
				bin, st := bi[i-2], bi[i-1]
				form, other := constForm(in.Dst, bin.Src1, bin.Src2)
				op := rConstBinSpillSt
				if ovClass(st) == ovSpillStore {
					op = rConstBinSpillStOv
				}
				*d = rinst{op: op,
					dst: c.reg(bin.Dst), a: c.reg(other), b: c.reg(in.Dst),
					c:  int32(spillBase + st.Imm),
					t1: int32(bin.Op), t2: form, imm: in.Imm}
				continue
			case fuseCmpBr:
				*d = rinst{op: rCmpEQBr + (in.Op - ir.OpCmpEQ),
					dst: c.reg(in.Dst), a: c.reg(in.Src1), b: c.reg(in.Src2)}
				branch(d, b, bi[i-1])
				continue
			case fuseConstBin:
				next := bi[i-1]
				form, other := constForm(in.Dst, next.Src1, next.Src2)
				*d = rinst{op: rConstBin,
					dst: c.reg(next.Dst), a: c.reg(other), b: c.reg(in.Dst),
					imm: in.Imm, t1: int32(next.Op), t2: form}
				if int(next.Op) < len(kOps) && kOps[next.Op] != 0 && (form == 0 || next.Op != ir.OpSub) {
					d.op = kOps[next.Op]
				}
				continue
			}

			*d = rinst{op: in.Op,
				dst: c.reg(in.Dst), a: c.reg(in.Src1), b: c.reg(in.Src2),
				imm: in.Imm, t1: -1, t2: -1}
			switch {
			case !in.Op.Valid():
				*d = rinst{op: rBadOp, a: int32(in.Op)}
			case in.Op == ir.OpSpillLoad || in.Op == ir.OpSpillStore:
				d.imm = spillBase + in.Imm
				if in.Imm < 0 {
					d.imm = -1 // panics on execution, like the tree engine
				}
			case in.Op == ir.OpSave || in.Op == ir.OpRestore:
				d.imm = saveBase + in.Imm
				if in.Imm < 0 {
					d.imm = -1
				}
			case in.Op == ir.OpCall:
				base := len(args)
				for _, a := range in.Args {
					args = append(args, c.reg(a))
				}
				callee := int32(-1)
				if ci, ok := index[in.Callee]; ok {
					callee = ci
				}
				d.imm = int64(len(fc.calls))
				fc.calls = append(fc.calls, rcCall{callee: callee, name: in.Callee, args: args[base:len(args):len(args)]})
			case in.Op == ir.OpBr:
				branch(d, b, in)
			case in.Op == ir.OpJmp:
				t1, ok := target(in.Then)
				if !ok {
					*d = rinst{op: rBadOp, a: int32(in.Op)}
					break
				}
				d.t1 = t1
				d.c = c.edgeSlots(b.SuccEdge(in.Then))
			}
			if ov := ovClass(in); ov != ovNone {
				d.op, d.ov, d.x = rOv, ov, int16(d.op)
			}
		}
		// A block without a terminator runs off its end; the trap
		// reproduces the tree interpreter's error without counting an
		// extra executed instruction.
		ins[pc] = rinst{op: rFellOff}
		pc++
	}
	if len(fc.starts) > len(f.Blocks) {
		// No entry to run: executing the function immediately errors.
		ins[pc] = rinst{op: rFellOff}
		fc.entry = int32(pc)
	} else if k := blockIndex(f, f.Entry, pos); k >= 0 {
		fc.entry = fc.starts[k]
	}

	// Quantum weights, last instruction first: a quantum-ending
	// instruction starts a new suffix sum. rOv weighs as its plain
	// opcode.
	var q int32
	for i := len(ins) - 1; i >= 0; i-- {
		op := ins[i].op
		if op == rOv {
			op = ir.Op(ins[i].x)
		}
		if rquantumEnd(op) {
			q = 0
		}
		q += rweight(op)
		ins[i].qlen = q
	}
	return pos, kinds
}

// constForm classifies how a const feeds a two-source consumer:
// 0 = other•const, 1 = const•other, -1 = no feed. When the const feeds
// both sources, the other operand is the const register itself (form
// 0): every fused form writes the const first, so reading its register
// then yields the constant.
func constForm(cdst, src1, src2 ir.Reg) (int32, ir.Reg) {
	switch {
	case src2 == cdst:
		return 0, src1
	case src1 == cdst:
		return 1, src2
	}
	return -1, ir.NoReg
}

// rweight is an instruction's IR-instruction count for step
// accounting: fused forms charge every constituent, traps charge like
// the instruction they reproduce (rBadOp executes-then-errors, so 1;
// rFellOff is synthetic, so 0). rOv is weighed by its plain opcode.
func rweight(op ir.Op) int32 {
	switch {
	case op < rBadOp: // every plain instruction
		return 1
	case op == rFellOff:
		return 0
	case op >= rCmpEQBr && op <= rXorK:
		return 2
	case op >= rCmpEQKBr && op <= rConstBinSpillStOv:
		return 3
	case op >= rLatchEQ && op <= rLatchGE:
		return 5
	}
	return 1
}

// rquantumEnd reports whether op terminates a straight-line quantum:
// anything that transfers control, flushes counters, or errors. rOv is
// judged by its plain opcode.
func rquantumEnd(op ir.Op) bool {
	if op < ir.OpCall {
		return false
	}
	switch op {
	case ir.OpCall, ir.OpRet, ir.OpBr, ir.OpJmp, rBadOp, rFellOff:
		return true
	}
	return (op >= rCmpEQBr && op <= rCmpGEBr) ||
		(op >= rCmpEQKBr && op <= rCmpGEKBr) ||
		(op >= rLatchEQ && op <= rLatchGE)
}
