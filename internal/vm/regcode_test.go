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
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/machine"
)

// runBoth executes prog on the regcode engine and the tree reference
// with identical configs and returns both outcomes.
func runBoth(t *testing.T, prog *ir.Program, cfg Config, args ...int64) (reg, tree struct {
	val   int64
	err   string
	stats Stats
}) {
	t.Helper()
	run := func(e Engine) (int64, string, Stats) {
		c := cfg
		c.Engine = e
		m := New(prog, c)
		val, err := m.Run(args...)
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		return val, msg, m.Stats.Snapshot()
	}
	reg.val, reg.err, reg.stats = run(EngineRegcode)
	tree.val, tree.err, tree.stats = run(EngineTree)
	return reg, tree
}

// assertSame fails unless the two outcomes match on every observable.
func assertSame(t *testing.T, label string, reg, tree struct {
	val   int64
	err   string
	stats Stats
}) {
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
}

// TestRegcodeUnknownOpcode: an invalid opcode compiles to a trap that
// reports the tree engine's exact message and counts the faulting
// instruction as executed, wherever in a quantum it sits.
func TestRegcodeUnknownOpcode(t *testing.T) {
	bu := ir.NewBuilder("bad", 0)
	bu.Block("entry")
	bu.Const(1)
	bu.Emit(&ir.Instr{Op: ir.Op(200), Dst: ir.NoReg, Src1: ir.NoReg, Src2: ir.NoReg})
	bu.Ret(ir.NoReg)
	p := ir.NewProgram()
	p.Add(bu.Finish())

	reg, tree := runBoth(t, p, Config{})
	assertSame(t, "bad-op", reg, tree)
	if !strings.Contains(reg.err, "unknown opcode") || !strings.Contains(reg.err, "bad") {
		t.Fatalf("unknown-opcode error lacks context: %q", reg.err)
	}
	// At the exact budget boundary the trap loses to the step limit —
	// the trap would be the instruction past the budget.
	for _, lim := range []int64{1, 2, 3} {
		reg, tree := runBoth(t, p, Config{MaxSteps: lim})
		assertSame(t, "bad-op-budget", reg, tree)
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

// countFormTwo compiles prog for the regcode engine and counts the
// fused const-feeding instructions whose form is 2 (const feeds both
// operands, so the register operand field holds -1).
func countFormTwo(prog *ir.Program) int {
	v := New(prog, Config{Engine: EngineRegcode})
	n := 0
	for _, fc := range v.rcode.funcs {
		for i := range fc.ins {
			in := &fc.ins[i]
			switch {
			case (in.op == rConstBin || in.op == rConstBinSpillSt || in.op == rConstBinSpillStOv) && in.t2 == 2:
				n++
			case in.op >= rConstCmpEQBr && in.op <= rConstCmpGEBr && in.x == 2:
				n++
			}
		}
	}
	return n
}

// TestRegcodeConstFormTwo: a const feeding BOTH operands of its fused
// consumer (form 2) stores -1 in the register-operand field, which the
// dispatch loop must never read. Covers all three fused shapes —
// const+binop, const+cmp+br, and const+binop+spill.st (plain and
// overhead-flagged) — in the quantum loop and, via the step-limit
// sweep, their careful-mode counterparts.
func TestRegcodeConstFormTwo(t *testing.T) {
	build := func(f func(bu *ir.Builder)) *ir.Program {
		bu := ir.NewBuilder("main", 0)
		bu.Block("entry")
		f(bu)
		p := ir.NewProgram()
		p.Add(bu.Finish())
		return p
	}

	progs := map[string]*ir.Program{
		// c = const 5; d = add c, c → rConstBin form 2, returns 10.
		"bin": build(func(bu *ir.Builder) {
			c := bu.Const(5)
			bu.Ret(bu.Bin(ir.OpAdd, c, c))
		}),
		// c = const 5; t = cmpeq c, c; br t → rConstCmpEQBr form 2.
		"cmp-br": build(func(bu *ir.Builder) {
			c := bu.Const(5)
			cond := bu.Bin(ir.OpCmpEQ, c, c)
			yes := bu.F.NewBlock("yes")
			no := bu.F.NewBlock("no")
			bu.Br(cond, yes, no, 0, 0)
			bu.SetCurrent(yes)
			one := bu.Const(1)
			bu.Ret(one)
			bu.SetCurrent(no)
			bu.Ret(ir.NoReg)
		}),
		// c = const 6; d = mul c, c; spill.st 3, d → rConstBinSpillSt
		// form 2, returns 36 through the slot.
		"bin-spillst": build(func(bu *ir.Builder) {
			c := bu.Const(6)
			d := bu.Bin(ir.OpMul, c, c)
			bu.Emit(&ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, Src1: d, Src2: ir.NoReg, Imm: 3})
			v := bu.F.NewVirt()
			bu.Emit(&ir.Instr{Op: ir.OpSpillLoad, Dst: v, Src1: ir.NoReg, Src2: ir.NoReg, Imm: 3})
			bu.Ret(v)
		}),
		// Same shape with !sp overhead flags → rConstBinSpillStOv form 2.
		"bin-spillst-ov": build(func(bu *ir.Builder) {
			c := bu.Const(6)
			d := bu.Bin(ir.OpMul, c, c)
			bu.Emit(&ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, Src1: d, Src2: ir.NoReg, Imm: 3, Flags: ir.FlagSpill})
			v := bu.F.NewVirt()
			bu.Emit(&ir.Instr{Op: ir.OpSpillLoad, Dst: v, Src1: ir.NoReg, Src2: ir.NoReg, Imm: 3, Flags: ir.FlagSpill})
			bu.Ret(v)
		}),
	}

	want := map[string]int64{"bin": 10, "cmp-br": 1, "bin-spillst": 36, "bin-spillst-ov": 36}
	for name, p := range progs {
		if n := countFormTwo(p); n == 0 {
			t.Fatalf("%s: no form-2 fused instruction compiled — the shape no longer exercises the fusion", name)
		}
		reg, tree := runBoth(t, p, Config{})
		assertSame(t, name, reg, tree)
		if reg.err != "" || reg.val != want[name] {
			t.Fatalf("%s = (%d, %q), want (%d, no error)", name, reg.val, reg.err, want[name])
		}
		// Every halt position, to drive the careful-mode counterparts.
		for lim := int64(1); lim <= 12; lim++ {
			reg, tree := runBoth(t, p, Config{MaxSteps: lim})
			assertSame(t, fmt.Sprintf("%s lim=%d", name, lim), reg, tree)
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
