package ir

import (
	"strings"
	"testing"
)

func TestInstrStringAllForms(t *testing.T) {
	b := &Block{Name: "tgt"}
	cases := []struct {
		in   *Instr
		want string
	}{
		{NewInstr(OpNop, NoReg, NoReg, NoReg, 0), "nop"},
		{NewInstr(OpConst, Virt(0), NoReg, NoReg, 7), "v0 = const 7"},
		{NewInstr(OpMov, Virt(1), Virt(0), NoReg, 0), "v1 = mov v0"},
		{NewInstr(OpNeg, Virt(1), Virt(0), NoReg, 0), "v1 = neg v0"},
		{NewInstr(OpNot, Virt(1), Virt(0), NoReg, 0), "v1 = not v0"},
		{NewInstr(OpAdd, Virt(2), Virt(0), Virt(1), 0), "v2 = add v0, v1"},
		{NewInstr(OpCmpGE, Virt(2), Virt(0), Virt(1), 0), "v2 = cmpge v0, v1"},
		{NewInstr(OpLoad, Virt(1), Virt(0), NoReg, 8), "v1 = load v0+8"},
		{NewInstr(OpStore, NoReg, Virt(0), Virt(1), 8), "store v0+8, v1"},
		{NewInstr(OpSpillLoad, Virt(1), NoReg, NoReg, 3), "v1 = spill.ld 3"},
		{NewInstr(OpSpillStore, NoReg, Virt(1), NoReg, 3), "spill.st 3, v1"},
		{NewInstr(OpSave, NoReg, Phys(12), NoReg, 0), "save 0, r12"},
		{NewInstr(OpRestore, Phys(12), NoReg, NoReg, 0), "r12 = restore 0"},
		{NewInstr(OpRet, NoReg, Virt(0), NoReg, 0), "ret v0"},
		{NewInstr(OpRet, NoReg, NoReg, NoReg, 0), "ret"},
		{&Instr{Op: OpJmp, Dst: NoReg, Src1: NoReg, Src2: NoReg, Then: b}, "jmp tgt"},
		{&Instr{Op: OpJmp, Dst: NoReg, Src1: NoReg, Src2: NoReg}, "jmp ?"},
		{&Instr{Op: OpBr, Dst: NoReg, Src1: Virt(0), Src2: NoReg, Then: b, Else: b}, "br v0, tgt, tgt"},
		{&Instr{Op: OpCall, Dst: NoReg, Src1: NoReg, Src2: NoReg, Callee: "g"}, "call g()"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if Op(200).String() != "op?" {
		t.Error("unknown opcode should render as op?")
	}
	if FallThrough.String() != "fall" || Jump.String() != "jump" {
		t.Error("EdgeKind strings wrong")
	}
}

func TestInstrDefAndClone(t *testing.T) {
	in := NewInstr(OpAdd, Virt(2), Virt(0), Virt(1), 0)
	if in.Def() != Virt(2) {
		t.Error("Def wrong")
	}
	call := &Instr{Op: OpCall, Dst: Virt(0), Src1: NoReg, Src2: NoReg,
		Callee: "g", Args: []Reg{Virt(1)}}
	cp := call.Clone()
	cp.Args[0] = Virt(9)
	if call.Args[0] == Virt(9) {
		t.Error("Clone shares Args")
	}
}

func TestBuilderHelpers(t *testing.T) {
	bu := NewBuilder("h", 1)
	bu.Block("entry")
	if bu.Current() == nil || bu.Current().Name != "entry" {
		t.Error("Current wrong")
	}
	v := bu.F.NewVirt()
	bu.ConstInto(v, 5)
	bu.Mov(v, bu.F.Params[0])
	sum := bu.Bin(OpAdd, v, v)
	bu.BinInto(OpSub, v, sum, v)
	addr := bu.Const(64)
	bu.Store(addr, 4, v)
	got := bu.Load(addr, 4)
	bu.Ret(got)
	f := bu.Finish()
	if err := Verify(f); err != nil {
		t.Fatal(err)
	}
	ops := []Op{OpConst, OpMov, OpAdd, OpSub, OpConst, OpStore, OpLoad, OpRet}
	if len(f.Entry.Instrs) != len(ops) {
		t.Fatalf("instr count = %d, want %d", len(f.Entry.Instrs), len(ops))
	}
	for i, op := range ops {
		if f.Entry.Instrs[i].Op != op {
			t.Errorf("instr %d = %v, want %v", i, f.Entry.Instrs[i].Op, op)
		}
	}
	if f.Instrs() != len(ops) {
		t.Errorf("Instrs() = %d", f.Instrs())
	}
	// Block() with an existing name switches to it.
	if bu.Block("entry") != f.Entry {
		t.Error("Block should return the existing block")
	}
}

func TestEdgesAndString(t *testing.T) {
	bu := NewBuilder("e", 0)
	a := bu.Block("A")
	b := bu.F.NewBlock("B")
	c := bu.F.NewBlock("C")
	bu.SetCurrent(a)
	cv := bu.Const(1)
	bu.Br(cv, b, c, 3, 4)
	bu.SetCurrent(b)
	bu.Ret(NoReg)
	bu.SetCurrent(c)
	bu.Ret(NoReg)
	f := bu.Finish()

	es := f.Edges()
	if len(es) != 2 {
		t.Fatalf("Edges = %d, want 2", len(es))
	}
	if es[0].String() == "" {
		t.Error("Edge.String empty")
	}
	s := f.String()
	if !strings.Contains(s, "func e()") || !strings.Contains(s, "preds A") {
		t.Errorf("Func.String missing pieces:\n%s", s)
	}
	if b.PredEdge(a) == nil || b.PredEdge(c) != nil {
		t.Error("PredEdge wrong")
	}
	if b.String() != "B" {
		t.Error("Block.String wrong")
	}
}

func TestVerifyMoreCases(t *testing.T) {
	// jmp whose edge disagrees with the instruction target.
	bu := NewBuilder("bad", 0)
	a := bu.Block("A")
	b := bu.F.NewBlock("B")
	c := bu.F.NewBlock("C")
	bu.SetCurrent(a)
	cv := bu.Const(1)
	bu.Br(cv, b, c, 1, 1)
	bu.SetCurrent(b)
	bu.Jmp(c, 1)
	bu.SetCurrent(c)
	bu.Ret(NoReg)
	f := bu.Finish()
	if err := Verify(f); err != nil {
		t.Fatal(err)
	}
	// Point the jmp instruction somewhere else without fixing edges.
	b.Terminator().Then = a
	if err := Verify(f); err == nil || !strings.Contains(err.Error(), "targets") {
		t.Errorf("mismatched jmp target not caught: %v", err)
	}
	b.Terminator().Then = c

	// Negative edge weight.
	f.Entry.Succs[0].Weight = -1
	if err := Verify(f); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative weight not caught: %v", err)
	}
	f.Entry.Succs[0].Weight = 1

	// br with identical targets.
	g := NewFunc("same")
	x := g.NewBlock("X")
	y := g.NewBlock("Y")
	cond := g.NewVirt()
	x.Append(NewInstr(OpConst, cond, NoReg, NoReg, 1))
	x.Append(&Instr{Op: OpBr, Dst: NoReg, Src1: cond, Src2: NoReg, Then: y, Else: y})
	g.AddEdge(x, y, Jump, 1)
	g.AddEdge(x, y, Jump, 1)
	y.Append(NewInstr(OpRet, NoReg, NoReg, NoReg, 0))
	g.RenumberBlocks()
	if err := Verify(g); err == nil {
		t.Error("identical br targets not caught")
	}

	// Arity mismatch in a program.
	p := NewProgram()
	callee := NewBuilder("callee", 2)
	callee.Block("entry")
	callee.Ret(NoReg)
	p.Add(callee.Finish())
	caller := NewBuilder("caller", 0)
	caller.Block("entry")
	caller.Call(NoReg, "callee", Virt(0)) // one arg, want two
	caller.Ret(NoReg)
	p.Add(caller.Finish())
	p.Main = "caller"
	if err := VerifyProgram(p); err == nil || !strings.Contains(err.Error(), "args") {
		t.Errorf("arity mismatch not caught: %v", err)
	}
}

func TestVerifyNoEntry(t *testing.T) {
	f := NewFunc("empty")
	if err := Verify(f); err == nil {
		t.Error("function without entry not caught")
	}
}

func TestNewBlockAutoName(t *testing.T) {
	f := NewFunc("auto")
	b := f.NewBlock("")
	if b.Name != "b0" {
		t.Errorf("auto name = %q, want b0", b.Name)
	}
}

// TestLinkEdgesMatchesAddEdge: LinkEdges leaves every block's Succs and
// Preds in the order AddEdge calls would, edges already linked first.
func TestLinkEdgesMatchesAddEdge(t *testing.T) {
	type spec struct{ from, to int }
	specs := []spec{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {1, 1}, {2, 1}}
	build := func(linkAll bool) *Func {
		f := NewFunc("f")
		for range 3 {
			f.NewBlock("")
		}
		f.AddEdge(f.Blocks[2], f.Blocks[1], FallThrough, 9) // already linked
		if !linkAll {
			for _, s := range specs {
				f.AddEdge(f.Blocks[s.from], f.Blocks[s.to], Jump, int64(s.to))
			}
			return f
		}
		edges := make([]Edge, len(specs))
		for i, s := range specs {
			edges[i] = Edge{From: f.Blocks[s.from], To: f.Blocks[s.to], Kind: Jump, Weight: int64(s.to)}
		}
		f.LinkEdges(edges)
		return f
	}
	render := func(f *Func) string {
		var b strings.Builder
		for _, blk := range f.Blocks {
			b.WriteString(blk.Name + " succs")
			for _, e := range blk.Succs {
				b.WriteString(" " + e.String())
			}
			b.WriteString(" preds")
			for _, e := range blk.Preds {
				b.WriteString(" " + e.String())
			}
			b.WriteString("\n")
		}
		return b.String()
	}
	if got, want := render(build(true)), render(build(false)); got != want {
		t.Errorf("LinkEdges:\n%s\nAddEdge:\n%s", got, want)
	}
}
