package vm

// regcode_test.go pins the regcode engine's error paths to the tree
// interpreter's, byte for byte: the step-limit error with its
// function and block context, unknown-opcode rejection, and the
// compiler's out-of-range frame and register handling. The broad
// differential battery lives in parity_test.go; these tests target
// the compiled paths a random program rarely hits.

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/machine"
)

// outcome is everything observable about one engine's run, the
// register file it leaves behind included.
type outcome struct {
	val   int64
	err   string
	stats Stats
	edges map[*ir.Edge]int64
	phys  [64]int64
}

// runBoth executes prog on the regcode engine and the tree reference
// with identical configs and returns both outcomes.
func runBoth(t *testing.T, prog *ir.Program, cfg Config, args ...int64) (reg, tree outcome) {
	t.Helper()
	run := func(e Engine) outcome {
		c := cfg
		c.Engine = e
		m := New(prog, c)
		val, err := m.Run(args...)
		o := outcome{val: val, stats: m.Stats.Snapshot(), edges: m.EdgeCount, phys: m.phys}
		if err != nil {
			o.err = err.Error()
		}
		return o
	}
	return run(EngineRegcode), run(EngineTree)
}

// assertSame fails unless the two outcomes match on every observable.
func assertSame(t *testing.T, label string, reg, tree outcome) {
	t.Helper()
	if reg.err != tree.err {
		t.Fatalf("%s: error mismatch:\n  regcode: %q\n  tree   : %q", label, reg.err, tree.err)
	}
	if reg.err == "" && reg.val != tree.val {
		t.Fatalf("%s: value mismatch: regcode %d, tree %d", label, reg.val, tree.val)
	}
	if !reflect.DeepEqual(reg.stats, tree.stats) {
		t.Fatalf("%s: stats mismatch:\n  regcode: %+v\n  tree   : %+v", label, reg.stats, tree.stats)
	}
	if !reflect.DeepEqual(reg.edges, tree.edges) {
		t.Fatalf("%s: edge counts mismatch:\n  regcode: %v\n  tree   : %v", label, reg.edges, tree.edges)
	}
	if reg.phys != tree.phys {
		t.Fatalf("%s: register file mismatch:\n  regcode: %v\n  tree   : %v", label, reg.phys, tree.phys)
	}
}

// TestRegcodeUnknownOpcode: an invalid opcode compiles to a trap that
// reports the tree engine's exact message and counts the faulting
// instruction as executed, wherever in a quantum it sits — and counts
// its overhead class first when it carries a flag, as the tree engine
// does.
func TestRegcodeUnknownOpcode(t *testing.T) {
	for _, flags := range []ir.InstrFlags{0, ir.FlagJumpBlock} {
		bu := ir.NewBuilder("bad", 0)
		bu.Block("entry")
		bu.Const(1)
		bu.Emit(&ir.Instr{Op: ir.Op(200), Dst: ir.NoReg, Src1: ir.NoReg, Src2: ir.NoReg, Flags: flags})
		bu.Ret(ir.NoReg)
		p := ir.NewProgram()
		p.Add(bu.Finish())

		reg, tree := runBoth(t, p, Config{})
		assertSame(t, "bad-op", reg, tree)
		if !strings.Contains(reg.err, "unknown opcode") || !strings.Contains(reg.err, "bad") {
			t.Fatalf("unknown-opcode error lacks context: %q", reg.err)
		}
		if reg.stats.JumpBlockJmps != int64(flags/ir.FlagJumpBlock) {
			t.Fatalf("flags %d: %d jump-block jumps counted", flags, reg.stats.JumpBlockJmps)
		}
		// At the exact budget boundary the trap loses to the step limit —
		// the trap would be the instruction past the budget.
		for _, lim := range []int64{1, 2, 3} {
			reg, tree := runBoth(t, p, Config{MaxSteps: lim})
			assertSame(t, "bad-op-budget", reg, tree)
		}
	}
}

// TestRegcodeStepLimitContext: the step-limit error wraps ErrStepLimit
// and names the function and block where execution stopped, at every
// halt position through a loop with fused superinstructions — the
// quantum accounting must attribute the halt to the same instruction
// the tree engine charges.
func TestRegcodeStepLimitContext(t *testing.T) {
	// inner: a counted loop whose latch fuses (const; add; const; cmp;
	// br). main calls it, so halts land in both functions.
	ib := ir.NewBuilder("inner", 1)
	loop := ib.Block("loop")
	one := ib.Const(1)
	sum := ib.F.Params[0]
	ib.Emit(&ir.Instr{Op: ir.OpAdd, Dst: sum, Src1: sum, Src2: one})
	lim := ib.Const(100)
	cond := ib.F.NewVirt()
	ib.Emit(&ir.Instr{Op: ir.OpCmpLT, Dst: cond, Src1: sum, Src2: lim})
	exit := ib.F.NewBlock("exit")
	ib.Br(cond, loop, exit, 0, 0)
	ib.SetCurrent(exit)
	ib.Ret(sum)

	mb := ir.NewBuilder("main", 1)
	mb.Block("entry")
	r := mb.F.NewVirt()
	mb.Emit(&ir.Instr{Op: ir.OpCall, Dst: r, Src1: ir.NoReg, Src2: ir.NoReg,
		Callee: "inner", Args: []ir.Reg{mb.F.Params[0]}})
	mb.Ret(r)

	p := ir.NewProgram()
	p.Add(mb.Finish())
	p.Add(ib.Finish())

	for lim := int64(1); lim <= 40; lim++ {
		reg, tree := runBoth(t, p, Config{MaxSteps: lim}, 0)
		assertSame(t, "halt", reg, tree)
		if reg.err == "" {
			continue
		}
		c := Config{MaxSteps: lim, Engine: EngineRegcode}
		_, err := New(p, c).Run(0)
		if !errors.Is(err, ErrStepLimit) {
			t.Fatalf("limit %d: error does not wrap ErrStepLimit: %v", lim, err)
		}
	}
}

// TestRegcodeOutOfRangeFrame: spill and save slots referenced past the
// function's declared counts grow the frame at compile time, and
// negative slot offsets fail identically to the other engines.
func TestRegcodeOutOfRangeFrame(t *testing.T) {
	bu := ir.NewBuilder("sp", 1)
	bu.Block("entry")
	// Slot 9 with zero declared slots: the verifier-grown frame must
	// hold it in every engine.
	bu.Emit(&ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, Src1: bu.F.Params[0],
		Src2: ir.NoReg, Imm: 9, Flags: ir.FlagSpill})
	v := bu.F.NewVirt()
	bu.Emit(&ir.Instr{Op: ir.OpSpillLoad, Dst: v, Src1: ir.NoReg, Src2: ir.NoReg,
		Imm: 9, Flags: ir.FlagSpill})
	bu.Emit(&ir.Instr{Op: ir.OpSave, Dst: ir.NoReg, Src1: v, Src2: ir.NoReg,
		Imm: 7, Flags: ir.FlagSaveRestore})
	w := bu.F.NewVirt()
	bu.Emit(&ir.Instr{Op: ir.OpRestore, Dst: w, Src1: ir.NoReg, Src2: ir.NoReg,
		Imm: 7, Flags: ir.FlagSaveRestore})
	bu.Ret(w)
	p := ir.NewProgram()
	p.Add(bu.Finish())

	reg, tree := runBoth(t, p, Config{}, 55)
	assertSame(t, "grown-slots", reg, tree)
	if reg.err != "" || reg.val != 55 {
		t.Fatalf("slot roundtrip = (%d, %q), want (55, no error)", reg.val, reg.err)
	}
	if reg.stats.SpillLoads != 1 || reg.stats.SpillStores != 1 || reg.stats.Saves != 1 || reg.stats.Restores != 1 {
		t.Fatalf("overhead counters: %+v", reg.stats)
	}
}

// TestRegcodeOutOfRegisterBank: physical registers past the machine's
// callee-saved range widen the bank's physical prefix, and writes to
// them survive into the global file across calls and returns — the
// copy-in/copy-out discipline is what the convention checker reads.
func TestRegcodeOutOfRegisterBank(t *testing.T) {
	mach := machine.PARISC()
	high := ir.Reg(60) // far beyond the machine's 24 registers

	cb := ir.NewBuilder("callee", 0)
	cb.Block("entry")
	k := cb.Const(17)
	cb.Emit(&ir.Instr{Op: ir.OpMov, Dst: high, Src1: k, Src2: ir.NoReg})
	cb.Ret(ir.NoReg)

	mb := ir.NewBuilder("main", 0)
	mb.Block("entry")
	mb.Emit(&ir.Instr{Op: ir.OpCall, Dst: ir.NoReg, Src1: ir.NoReg, Src2: ir.NoReg, Callee: "callee"})
	r := mb.F.NewVirt()
	mb.Emit(&ir.Instr{Op: ir.OpMov, Dst: r, Src1: high, Src2: ir.NoReg})
	mb.Ret(r)

	p := ir.NewProgram()
	p.Add(mb.Finish())
	p.Add(cb.Finish())

	reg, tree := runBoth(t, p, Config{Machine: mach})
	assertSame(t, "high-phys", reg, tree)
	if reg.err != "" || reg.val != 17 {
		t.Fatalf("high-register write = (%d, %q), want (17, no error)", reg.val, reg.err)
	}
}

// TestRegcodeConventionViolation: a clobbered callee-saved register is
// reported with the tree engine's exact message, and the erroring
// frame's register file is what the checker saw.
func TestRegcodeConventionViolation(t *testing.T) {
	mach := machine.PARISC()
	cs := mach.CalleeSaved()[0]

	cb := ir.NewBuilder("clobber", 0)
	cb.Block("entry")
	k := cb.Const(99)
	cb.Emit(&ir.Instr{Op: ir.OpMov, Dst: cs, Src1: k, Src2: ir.NoReg})
	cb.Ret(ir.NoReg)

	mb := ir.NewBuilder("main", 0)
	mb.Block("entry")
	mb.Emit(&ir.Instr{Op: ir.OpCall, Dst: ir.NoReg, Src1: ir.NoReg, Src2: ir.NoReg, Callee: "clobber"})
	mb.Ret(ir.NoReg)

	p := ir.NewProgram()
	p.Add(mb.Finish())
	p.Add(cb.Finish())

	reg, tree := runBoth(t, p, Config{Machine: mach})
	assertSame(t, "convention", reg, tree)
	if !strings.Contains(reg.err, "violated callee-saved convention") || !strings.Contains(reg.err, "clobber") {
		t.Fatalf("convention error lacks context: %q", reg.err)
	}
}

// compiled returns the regcode instructions of prog's main function.
func compiled(prog *ir.Program) []rinst {
	c := New(prog, Config{}).rcode
	return c.funcs[c.main].ins
}

// buildMain builds a program of one function, main, with one
// parameter and an entry block, whose body f emits.
func buildMain(f func(bu *ir.Builder, x ir.Reg)) *ir.Program {
	bu := ir.NewBuilder("main", 1)
	bu.Block("entry")
	f(bu, bu.F.Params[0])
	p := ir.NewProgram()
	p.Add(bu.Finish())
	return p
}

// constFedOperands returns a const-fed consumer's sources for operand
// form 0 (x•K), 1 (K•x) or 2 (K•K), and its destination: a fresh
// register (alias 0), the const's (1), x's (2), or a physical register
// (3), which the register file left behind shows after a halt.
func constFedOperands(bu *ir.Builder, x, k ir.Reg, form, alias int) (dst, src1, src2 ir.Reg) {
	src1, src2 = [3]ir.Reg{x, k, k}[form], [3]ir.Reg{k, x, k}[form]
	return [4]ir.Reg{bu.F.NewVirt(), k, x, ir.Phys(2)}[alias], src1, src2
}

// TestRegcodeConstFormTwo: every const-fed pair and triple compiles
// to its opcode — one per operator for x•K (and K•x when the operator
// commutes), one per relation for the compare-branch (mirrored for
// K•x), the generic form for the rest — and agrees with the tree
// engine on values that overflow, divide by zero, shift by 64 or more,
// and are negative, with the destination aliasing either source or
// physical, and at every step budget up to the program's length, which
// halts careful mode on each constituent. A K•K form compiles as x•K whose other
// operand is the const register, which holds K by the time it is read.
func TestRegcodeConstFormTwo(t *testing.T) {
	ks := []int64{0, 3, -5, 64, 65, math.MaxInt64, math.MinInt64}
	xs := []int64{0, -7, 9, 64, math.MaxInt64, math.MinInt64}
	forms := []string{"x•K", "K•x", "K•K"}
	ops := []ir.Op{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem, ir.OpAnd, ir.OpOr, ir.OpXor,
		ir.OpShl, ir.OpShr, ir.OpCmpEQ, ir.OpCmpNE, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE}
	check := func(label string, p *ir.Program, cfg Config, steps int64) {
		t.Helper()
		for _, x := range xs {
			reg, tree := runBoth(t, p, cfg, x)
			assertSame(t, fmt.Sprintf("%s x=%d", label, x), reg, tree)
		}
		for lim := int64(1); lim <= steps; lim++ {
			cfg.MaxSteps = lim
			reg, tree := runBoth(t, p, cfg, -7)
			assertSame(t, fmt.Sprintf("%s lim=%d", label, lim), reg, tree)
		}
	}

	// const; binop: k = const K; d = op …; e = add d, k; ret e.
	for _, op := range ops {
		for form := range forms {
			for alias := 0; alias < 4; alias++ {
				for _, k := range ks {
					p := buildMain(func(bu *ir.Builder, x ir.Reg) {
						kr := bu.Const(k)
						d, s1, s2 := constFedOperands(bu, x, kr, form, alias)
						bu.BinInto(op, d, s1, s2)
						bu.Ret(bu.Bin(ir.OpAdd, d, kr))
					})
					want := rConstBin
					if int(op) < len(kOps) && kOps[op] != 0 && (form != 1 || op != ir.OpSub) {
						want = kOps[op]
					}
					label := fmt.Sprintf("%v %s alias=%d K=%d", op, forms[form], alias, k)
					if got := compiled(p)[0]; got.op != want || (form == 2) != (got.a == got.b) {
						t.Fatalf("%s: compiled opcode %d (a=%d, b=%d), want %d", label, got.op, got.a, got.b, want)
					}
					check(label, p, Config{}, 4)
				}
			}
		}
	}

	// const; cmp; br: both arms read the condition and the const.
	for rel := ir.OpCmpEQ; rel <= ir.OpCmpGE; rel++ {
		for form := range forms {
			for alias := 0; alias < 4; alias++ {
				for _, k := range ks {
					p := buildMain(func(bu *ir.Builder, x ir.Reg) {
						kr := bu.Const(k)
						d, s1, s2 := constFedOperands(bu, x, kr, form, alias)
						bu.BinInto(rel, d, s1, s2)
						yes, no := bu.F.NewBlock("yes"), bu.F.NewBlock("no")
						bu.Br(d, yes, no, 0, 0)
						bu.SetCurrent(yes)
						bu.Ret(bu.Bin(ir.OpAdd, d, kr))
						bu.SetCurrent(no)
						bu.Ret(bu.Bin(ir.OpSub, d, kr))
					})
					want := rel
					if form == 1 {
						want = mirror[rel]
					}
					want += rCmpEQKBr - ir.OpCmpEQ
					label := fmt.Sprintf("%v %s alias=%d K=%d", rel, forms[form], alias, k)
					if got := compiled(p)[0]; got.op != want || (form == 2) != (got.a == got.b) {
						t.Fatalf("%s: compiled opcode %d (a=%d, b=%d), want %d", label, got.op, got.a, got.b, want)
					}
					check(label, p, Config{CollectEdges: true}, 5)
				}
			}
		}
	}

	// const; binop; spill.st with K•K, plain and flagged: returns 36
	// through the slot.
	for _, flags := range []ir.InstrFlags{0, ir.FlagSpill} {
		p := buildMain(func(bu *ir.Builder, x ir.Reg) {
			c := bu.Const(6)
			d := bu.Bin(ir.OpMul, c, c)
			bu.Emit(&ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, Src1: d, Src2: ir.NoReg, Imm: 3, Flags: flags})
			v := bu.F.NewVirt()
			bu.Emit(&ir.Instr{Op: ir.OpSpillLoad, Dst: v, Src1: ir.NoReg, Src2: ir.NoReg, Imm: 3, Flags: flags})
			bu.Ret(v)
		})
		want := rConstBinSpillSt
		if flags != 0 {
			want = rConstBinSpillStOv
		}
		label := fmt.Sprintf("spill-store triple flags=%d", flags)
		if got := compiled(p)[0]; got.op != want || got.a != got.b {
			t.Fatalf("%s: compiled %+v, want opcode %d reading the const register", label, got, want)
		}
		reg, _ := runBoth(t, p, Config{}, 0)
		if reg.err != "" || reg.val != 36 {
			t.Fatalf("%s = (%d, %q), want (36, no error)", label, reg.val, reg.err)
		}
		check(label, p, Config{}, 5)
	}
}

// TestRegcodeOverheadFlags: each flag parsed from text, on each of
// jmp, add, const, spill.st and save (and call and ret, which end a
// quantum mid-block and at its end), counts and halts as the tree
// engine does, and compiles to rOv exactly when it gives the
// instruction an overhead class (unless the class is a spill store
// the const+binop+spill.st triple absorbs). No generated program
// carries a jump-block flag, so only this test runs one on a jmp.
func TestRegcodeOverheadFlags(t *testing.T) {
	body := []string{
		"const:v1 = const 5",
		"add:v2 = add v0, v1",
		"spill.st:spill.st 0, v2",
		"save:save 0, r11",
		"call:v5 = call id(v2)",
		":v3 = spill.ld 0",
		":r11 = restore 0",
		"jmp:jmp next",
		"next:",
		":v4 = add v3, v5",
		"ret:ret v4",
	}
	for _, op := range []string{"jmp", "add", "const", "spill.st", "save", "call", "ret"} {
		for _, flag := range []string{"!jb", "!spill", "!sr"} {
			var src strings.Builder
			src.WriteString("func main(v0) {\nentry:\n")
			for _, line := range body {
				name, text, _ := strings.Cut(line, ":")
				switch {
				case name == "next":
					src.WriteString("next:\n")
					continue
				case name == op:
					text += " " + flag
				}
				src.WriteString("\t" + text + "\n")
			}
			src.WriteString("}\n\nfunc id(v0) {\nentry:\n\tret v0\n}\n")
			p, err := irtext.Parse(src.String())
			if err != nil {
				t.Fatalf("%s %s: %v", op, flag, err)
			}
			label := op + " " + flag
			var class uint8
			for _, b := range p.Func("main").Blocks {
				for _, in := range b.Instrs {
					class = max(class, ovClass(in))
				}
			}
			wantOv := class != ovNone && !(op == "spill.st" && class == ovSpillStore)
			gotOv := false
			for _, in := range compiled(p) {
				if in.op == rOv {
					gotOv = true
					if ir.Op(in.x) >= rBadOp || in.ov != class {
						t.Fatalf("%s: rOv carries opcode %d, class %d; want a plain opcode and class %d", label, in.x, in.ov, class)
					}
				}
			}
			if gotOv != wantOv {
				t.Fatalf("%s: compiled rOv = %v, want %v", label, gotOv, wantOv)
			}
			for lim := int64(0); lim <= 12; lim++ {
				reg, tree := runBoth(t, p, Config{MaxSteps: lim, CollectEdges: true}, 4)
				assertSame(t, fmt.Sprintf("%s lim=%d", label, lim), reg, tree)
			}
		}
	}
}

// TestRegcodeCallPrefix: a call hands the physical-register prefix
// from the caller's bank to the callee's. A callee-saved violation two
// calls deep reports the value main wrote before the first call, a
// physical parameter counts among the callee's entry values, and a
// depth or arity error after nested calls leaves the caller's
// registers in the VM's file — in every case exactly as the tree
// engine reports them and leaves the file.
func TestRegcodeCallPrefix(t *testing.T) {
	mach := machine.PARISC()
	cs0, cs1 := mach.CalleeSaved()[0], mach.CalleeSaved()[1]
	program := func(funcs ...*ir.Builder) *ir.Program {
		p := ir.NewProgram()
		for _, bu := range funcs {
			p.Add(bu.Finish())
		}
		p.Main = "main"
		return p
	}
	fn := func(name string, params []ir.Reg, f func(bu *ir.Builder)) *ir.Builder {
		bu := ir.NewBuilder(name, 0)
		bu.F.Params = params
		bu.Block("entry")
		f(bu)
		return bu
	}
	call := func(bu *ir.Builder, callee string, args ...ir.Reg) {
		bu.Emit(&ir.Instr{Op: ir.OpCall, Dst: ir.NoReg, Src1: ir.NoReg, Src2: ir.NoReg, Callee: callee, Args: args})
	}
	set := func(bu *ir.Builder, r ir.Reg, k int64) {
		bu.Emit(&ir.Instr{Op: ir.OpConst, Dst: r, Src1: ir.NoReg, Src2: ir.NoReg, Imm: k})
	}
	cases := []struct {
		name string
		prog *ir.Program
		err  string
	}{
		{"violation two calls deep", program(
			fn("main", nil, func(bu *ir.Builder) { set(bu, cs0, 7); set(bu, cs1, 8); call(bu, "mid"); bu.Ret(ir.NoReg) }),
			fn("mid", nil, func(bu *ir.Builder) { set(bu, ir.Phys(2), 3); call(bu, "leaf"); bu.Ret(ir.NoReg) }),
			fn("leaf", nil, func(bu *ir.Builder) { set(bu, cs1, 99); bu.Ret(ir.NoReg) }),
		), fmt.Sprintf("vm: leaf violated callee-saved convention: %v changed from 8 to 99", cs1)},
		{"physical parameter", program(
			fn("main", nil, func(bu *ir.Builder) {
				set(bu, cs0, 3)
				k := bu.Const(9)
				call(bu, "mid", k)
				bu.Ret(ir.NoReg)
			}),
			fn("mid", []ir.Reg{cs0}, func(bu *ir.Builder) { call(bu, "leaf"); bu.Ret(cs0) }),
			fn("leaf", nil, func(bu *ir.Builder) { set(bu, ir.Phys(1), 4); bu.Ret(ir.NoReg) }),
		), fmt.Sprintf("vm: main violated callee-saved convention: %v changed from 0 to 9", cs0)},
		{"depth after nested calls", program(
			fn("main", nil, func(bu *ir.Builder) { set(bu, ir.Phys(2), 1); call(bu, "f"); bu.Ret(ir.NoReg) }),
			fn("f", nil, func(bu *ir.Builder) {
				bu.BinInto(ir.OpAdd, ir.Phys(3), ir.Phys(3), ir.Phys(2))
				call(bu, "f")
				bu.Ret(ir.NoReg)
			}),
		), "vm: call depth exceeded in f"},
		{"arity after nested calls", program(
			fn("main", nil, func(bu *ir.Builder) { set(bu, ir.Phys(2), 1); call(bu, "mid"); bu.Ret(ir.NoReg) }),
			fn("mid", nil, func(bu *ir.Builder) { set(bu, ir.Phys(4), 5); call(bu, "leaf", ir.Phys(4)); bu.Ret(ir.NoReg) }),
			fn("leaf", nil, func(bu *ir.Builder) { bu.Ret(ir.NoReg) }),
		), "vm: leaf called with 1 args, want 0"},
	}
	for _, tc := range cases {
		for _, m := range []*machine.Desc{mach, nil} {
			reg, tree := runBoth(t, tc.prog, Config{Machine: m})
			label := fmt.Sprintf("%s machine=%v", tc.name, m != nil)
			assertSame(t, label, reg, tree)
			if m != nil && reg.err != tc.err {
				t.Fatalf("%s: error %q, want %q", label, reg.err, tc.err)
			}
		}
	}
}

// TestRegcodeArenaRelease: frames come from the chunked arena with
// LIFO discipline — after any run, successful or erroring, the arena
// is fully released and a second run on the same VM reuses it.
func TestRegcodeArenaRelease(t *testing.T) {
	// Deep recursion: 64 live frames, then unwinding.
	fb := ir.NewBuilder("f", 1)
	entry := fb.Block("entry")
	rec := fb.F.NewBlock("rec")
	base := fb.F.NewBlock("base")
	fb.SetCurrent(entry)
	cond := fb.F.NewVirt()
	zero := fb.Const(0)
	fb.Emit(&ir.Instr{Op: ir.OpCmpGT, Dst: cond, Src1: fb.F.Params[0], Src2: zero})
	fb.Br(cond, rec, base, 0, 0)
	fb.SetCurrent(rec)
	one := fb.Const(1)
	next := fb.F.NewVirt()
	fb.Emit(&ir.Instr{Op: ir.OpSub, Dst: next, Src1: fb.F.Params[0], Src2: one})
	r := fb.F.NewVirt()
	fb.Emit(&ir.Instr{Op: ir.OpCall, Dst: r, Src1: ir.NoReg, Src2: ir.NoReg,
		Callee: "f", Args: []ir.Reg{next}})
	fb.Ret(r)
	fb.SetCurrent(base)
	fb.Ret(fb.F.Params[0])

	p := ir.NewProgram()
	p.Main = "f"
	p.Add(fb.Finish())

	m := New(p, Config{Engine: EngineRegcode})
	for i := 0; i < 2; i++ {
		if _, err := m.Run(64); err != nil {
			t.Fatal(err)
		}
		if m.arena.ci != 0 || m.arena.off != 0 {
			t.Fatalf("run %d: arena not released: ci=%d off=%d", i, m.arena.ci, m.arena.off)
		}
	}
	chunks := len(m.arena.chunks)

	// An erroring run (step limit deep in the recursion) must release
	// everything too, without growing the arena past the first run's
	// high-water mark.
	if _, err := m.Run(64); err != nil {
		t.Fatal(err)
	}
	me := New(p, Config{Engine: EngineRegcode, MaxSteps: 50})
	if _, err := me.Run(64); err == nil {
		t.Fatal("expected step limit error")
	}
	if me.arena.ci != 0 || me.arena.off != 0 {
		t.Fatalf("erroring run: arena not released: ci=%d off=%d", me.arena.ci, me.arena.off)
	}
	if got := len(m.arena.chunks); got != chunks {
		t.Fatalf("arena grew across identical runs: %d -> %d chunks", chunks, got)
	}
}

// TestParseEngineAlias: the engine surface names two engines, regcode
// (the zero value) and tree; "bytecode", the retired engine's name,
// parses as a deprecated alias of regcode and is never printed.
func TestParseEngineAlias(t *testing.T) {
	if e, err := ParseEngine("bytecode"); err != nil || e != EngineRegcode {
		t.Fatalf(`ParseEngine("bytecode") = %v, %v; want regcode`, e, err)
	}
	var zero Engine
	if zero != EngineRegcode {
		t.Errorf("zero Engine is %v, want regcode", zero)
	}
	if len(Engines) != 2 {
		t.Errorf("Engines = %v, want regcode and tree", Engines)
	}
	for _, e := range Engines {
		if e.String() == "bytecode" {
			t.Errorf("engine %d prints as the retired name", e)
		}
		if back, err := ParseEngine(e.String()); err != nil || back != e {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", e.String(), back, err, e)
		}
	}
	if _, err := ParseEngine("jit"); err == nil || !strings.Contains(err.Error(), "want regcode or tree") {
		t.Errorf(`ParseEngine("jit") error = %v`, err)
	}
}

// TestRegcodeSteadyStateAllocs: the arena starts from the program's
// total bank length and grows geometrically for recursion, so once a
// VM has run a program, running it again allocates nothing.
func TestRegcodeSteadyStateAllocs(t *testing.T) {
	fb := ir.NewBuilder("f", 1)
	entry := fb.Block("entry")
	rec := fb.F.NewBlock("rec")
	base := fb.F.NewBlock("base")
	fb.SetCurrent(entry)
	cond := fb.F.NewVirt()
	zero := fb.Const(0)
	fb.Emit(&ir.Instr{Op: ir.OpCmpGT, Dst: cond, Src1: fb.F.Params[0], Src2: zero})
	fb.Br(cond, rec, base, 0, 0)
	fb.SetCurrent(rec)
	one := fb.Const(1)
	next := fb.F.NewVirt()
	fb.Emit(&ir.Instr{Op: ir.OpSub, Dst: next, Src1: fb.F.Params[0], Src2: one})
	r := fb.F.NewVirt()
	fb.Emit(&ir.Instr{Op: ir.OpCall, Dst: r, Src1: ir.NoReg, Src2: ir.NoReg,
		Callee: "f", Args: []ir.Reg{next}})
	fb.Ret(r)
	fb.SetCurrent(base)
	fb.Ret(fb.F.Params[0])
	p := ir.NewProgram()
	p.Main = "f"
	p.Add(fb.Finish())

	m := New(p, Config{CollectEdges: true})
	if m.arena.first != m.rcode.bankSum {
		t.Fatalf("arena first chunk %d words, want the program's bank total %d", m.arena.first, m.rcode.bankSum)
	}
	if _, err := m.Run(300); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(m.arena.chunks); i++ {
		if prev, cur := len(m.arena.chunks[i-1]), len(m.arena.chunks[i]); cur != min(2*prev, rcChunkWords) {
			t.Errorf("chunk %d holds %d words after %d, want geometric growth", i, cur, prev)
		}
	}
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := m.Run(300); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("steady-state Run allocates %.0f times, want 0", allocs)
	}
}

// TestRegcodeBlockOrder: branch targets and the block names in error
// messages resolve by block position, whatever the block IDs say —
// after a reorder that leaves the IDs stale, and with an ID far outside
// the dense range — and a jump into another function's block traps.
func TestRegcodeBlockOrder(t *testing.T) {
	p := fib()
	f := p.Func("fib")
	slices.Reverse(f.Blocks)
	f.Blocks[0].ID = 1 << 20
	for _, lim := range []int64{0, 7, 40} {
		reg, tree := runBoth(t, p, Config{MaxSteps: lim}, 10)
		assertSame(t, fmt.Sprintf("reordered lim=%d", lim), reg, tree)
		if lim == 0 && reg.val != 55 {
			t.Fatalf("reordered fib(10) = %d, want 55", reg.val)
		}
	}

	other := ir.NewBuilder("other", 0)
	far := other.Block("far")
	other.Ret(ir.NoReg)
	mb := ir.NewBuilder("main", 0)
	mb.Block("entry")
	mb.Jmp(far, 0)
	q := ir.NewProgram()
	q.Add(mb.Finish())
	q.Add(other.Finish())
	if _, err := New(q, Config{}).Run(); err == nil || err.Error() != "vm: main: unknown opcode jmp" {
		t.Fatalf("jump into another function: err = %v, want the unknown-opcode trap", err)
	}
}
