package regalloc

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/vm"
)

// buildCallProg builds:
//
//	leaf(x)   = x*2
//	helper(x) = (x+1) + leaf(x)   // x+1 lives across the call
//	main(x)   = helper(x) + 3
func buildCallProg() *ir.Program {
	p := ir.NewProgram()

	lb := ir.NewBuilder("leaf", 1)
	lb.Block("entry")
	two := lb.Const(2)
	r := lb.Bin(ir.OpMul, lb.F.Params[0], two)
	lb.Ret(r)
	p.Add(lb.Finish())

	hb := ir.NewBuilder("helper", 1)
	hb.Block("entry")
	one := hb.Const(1)
	a := hb.Bin(ir.OpAdd, hb.F.Params[0], one)
	b := hb.F.NewVirt()
	hb.Call(b, "leaf", hb.F.Params[0])
	s := hb.Bin(ir.OpAdd, a, b)
	hb.Ret(s)
	p.Add(hb.Finish())

	mb := ir.NewBuilder("main", 1)
	mb.Block("entry")
	h := mb.F.NewVirt()
	mb.Call(h, "helper", mb.F.Params[0])
	three := mb.Const(3)
	r2 := mb.Bin(ir.OpAdd, h, three)
	mb.Ret(r2)
	p.Add(mb.Finish())
	p.Main = "main"
	return p
}

func TestAllocateCallProgram(t *testing.T) {
	p := buildCallProg()
	m := machine.PARISC()

	// Reference semantics before allocation.
	ref, err := vm.New(p.Clone(), vm.Config{}).Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if ref != 10+1+20+3 {
		t.Fatalf("reference result = %d, want 34", ref)
	}

	if _, err := AllocateProgram(p, m, 1, Options{}); err != nil {
		t.Fatal(err)
	}
	// No virtual registers remain.
	for _, f := range p.FuncsInOrder() {
		if err := ir.Verify(f); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				var buf []ir.Reg
				for _, u := range in.Uses(buf) {
					if u.IsVirt() {
						t.Fatalf("%s: %v still uses virtual %v", f.Name, in, u)
					}
				}
				if d := in.Def(); d.IsValid() && d.IsVirt() {
					t.Fatalf("%s: %v still defines virtual %v", f.Name, in, d)
				}
			}
		}
	}

	// helper holds a value across the call: it must use a callee-saved
	// register.
	h := p.Func("helper")
	if len(h.UsedCalleeSaved) == 0 {
		t.Fatal("helper should use a callee-saved register for the value live across the call")
	}
	for _, r := range h.UsedCalleeSaved {
		if !m.IsCalleeSaved(r) {
			t.Errorf("UsedCalleeSaved contains caller-saved %v", r)
		}
	}

	// Without save/restore placement the convention-checking VM must
	// reject helper (it clobbers a callee-saved register).
	if _, err := vm.New(p.Clone(), vm.Config{Machine: m}).Run(10); err == nil {
		t.Fatal("expected convention violation before save/restore placement")
	}

	// With entry/exit placement the program runs and computes the
	// same result as before allocation.
	fixed := p.Clone()
	for _, f := range fixed.FuncsInOrder() {
		if len(f.UsedCalleeSaved) == 0 {
			continue
		}
		if err := core.Apply(f, core.EntryExit(f)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := vm.New(fixed, vm.Config{Machine: m}).Run(10)
	if err != nil {
		t.Fatalf("post-placement run: %v", err)
	}
	if got != ref {
		t.Fatalf("post-allocation result = %d, want %d", got, ref)
	}
}

func TestAllocateForcesSpills(t *testing.T) {
	// With only 3 registers, 6 simultaneously-live values must spill.
	bu := ir.NewBuilder("pressure", 1)
	bu.Block("entry")
	x := bu.F.Params[0]
	vals := make([]ir.Reg, 6)
	for i := range vals {
		c := bu.Const(int64(i + 1))
		vals[i] = bu.Bin(ir.OpAdd, x, c)
	}
	sum := vals[0]
	for _, v := range vals[1:] {
		sum = bu.Bin(ir.OpAdd, sum, v)
	}
	bu.Ret(sum)
	f := bu.Finish()
	p := ir.NewProgram()
	p.Add(f)

	ref, err := vm.New(p.Clone(), vm.Config{}).Run(100)
	if err != nil {
		t.Fatal(err)
	}

	m := machine.Small(3, 1)
	res, err := Allocate(f, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spilled) == 0 {
		t.Fatal("expected spills with 3 registers and 6 live values")
	}
	if f.SpillSlots == 0 {
		t.Fatal("no spill slots assigned")
	}
	// Exact frame sizing: SpillSlots must cover exactly the slots the
	// final code references (VM frames are sized from it once per call).
	maxSlot := -1
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if (in.Op == ir.OpSpillLoad || in.Op == ir.OpSpillStore) && int(in.Imm) > maxSlot {
				maxSlot = int(in.Imm)
			}
		}
	}
	if f.SpillSlots != maxSlot+1 {
		t.Fatalf("SpillSlots = %d, want exactly %d (max referenced slot + 1)", f.SpillSlots, maxSlot+1)
	}
	spillCount := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Flags&ir.FlagSpill != 0 {
				spillCount++
			}
		}
	}
	if spillCount == 0 {
		t.Fatal("no spill instructions inserted")
	}
	// Under this much pressure the allocator legitimately reaches for
	// the callee-saved register; place its save/restore code before
	// running with convention checks.
	if len(f.UsedCalleeSaved) > 0 {
		if err := core.Apply(f, core.EntryExit(f)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := vm.New(p, vm.Config{Machine: m}).Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("spilled result = %d, want %d", got, ref)
	}
}

func TestAllocateDiamondControlFlow(t *testing.T) {
	// abs-like function: interference across branches.
	bu := ir.NewBuilder("absish", 1)
	entry := bu.Block("entry")
	neg := bu.F.NewBlock("neg")
	pos := bu.F.NewBlock("pos")
	join := bu.F.NewBlock("join")

	bu.SetCurrent(entry)
	zero := bu.Const(0)
	c := bu.Bin(ir.OpCmpLT, bu.F.Params[0], zero)
	res := bu.F.NewVirt()
	bu.Br(c, neg, pos, 1, 1)

	bu.SetCurrent(neg)
	bu.BinInto(ir.OpSub, res, zero, bu.F.Params[0])
	bu.Jmp(join, 1)

	bu.SetCurrent(pos)
	bu.Mov(res, bu.F.Params[0])
	bu.Jmp(join, 1)

	bu.SetCurrent(join)
	bu.Ret(res)
	f := bu.Finish()
	p := ir.NewProgram()
	p.Add(f)

	for _, in := range []int64{-5, 7} {
		want := in
		if want < 0 {
			want = -want
		}
		q := p.Clone()
		m := machine.PARISC()
		if _, err := Allocate(q.Func("absish"), m, Options{}); err != nil {
			t.Fatal(err)
		}
		got, err := vm.New(q, vm.Config{Machine: m}).Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("absish(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestTooManyParams(t *testing.T) {
	bu := ir.NewBuilder("many", 6)
	bu.Block("entry")
	bu.Ret(bu.F.Params[0])
	f := bu.Finish()
	if _, err := Allocate(f, machine.PARISC(), Options{}); err == nil {
		t.Fatal("expected error for 6 params with 4 arg registers")
	}
}

func TestDeterministicAllocation(t *testing.T) {
	build := func() *ir.Program { return buildCallProg() }
	p1, p2 := build(), build()
	m := machine.PARISC()
	if _, err := AllocateProgram(p1, m, 1, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := AllocateProgram(p2, m, 1, Options{}); err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() {
		t.Error("allocation is not deterministic")
	}
}

// TestAllocateProgramNamesPanickingFunction: a panic while allocating
// one function comes back prefixed with that function's name and
// still carries the *par.PanicError the service answers 500 for;
// par.Do's own index counts within FuncsInOrder, which the caller
// cannot map back to a function.
func TestAllocateProgramNamesPanickingFunction(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		p := buildCallProg()
		helper := p.Func("helper")
		helper.Entry.Instrs = append([]*ir.Instr{nil}, helper.Entry.Instrs...)
		_, err := AllocateProgram(p, machine.PARISC(), parallelism, Options{})
		var pe *par.PanicError
		if err == nil || !strings.HasPrefix(err.Error(), "helper: ") || !errors.As(err, &pe) {
			t.Errorf("parallelism %d: error %v, want a *par.PanicError prefixed %q", parallelism, err, "helper: ")
		}
	}
}
