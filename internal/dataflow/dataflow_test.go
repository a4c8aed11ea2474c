package dataflow

import (
	"slices"
	"testing"

	"repro/internal/ir"
)

// buildLinear constructs: entry: v0=1; v1=v0+v0; loop: v2=v1+v0;
// br -> loop|exit; exit: ret v2.
func buildLinear() *ir.Func {
	bu := ir.NewBuilder("lv", 0)
	entry := bu.Block("entry")
	loop := bu.F.NewBlock("loop")
	exit := bu.F.NewBlock("exit")

	bu.SetCurrent(entry)
	v0 := bu.Const(1)
	v1 := bu.Bin(ir.OpAdd, v0, v0)
	bu.Jmp(loop, 1)

	bu.SetCurrent(loop)
	v2 := bu.Bin(ir.OpAdd, v1, v0)
	bu.Br(v2, loop, exit, 9, 1)

	bu.SetCurrent(exit)
	bu.Ret(v2)
	return bu.Finish()
}

func TestLiveness(t *testing.T) {
	f := buildLinear()
	lv := ComputeLiveness(f)
	loop := f.BlockByName("loop")
	exit := f.BlockByName("exit")
	v0, v1, v2 := ir.Virt(0), ir.Virt(1), ir.Virt(2)

	// v0 and v1 are live into the loop (used there); v2 live into exit.
	if !lv.LiveIn(loop, v0) || !lv.LiveIn(loop, v1) {
		t.Error("v0,v1 should be live into loop")
	}
	if !lv.LiveIn(exit, v2) {
		t.Error("v2 should be live into exit")
	}
	if lv.LiveIn(exit, v0) {
		t.Error("v0 should be dead at exit")
	}
	// Loop-carried: v0, v1 live out of loop (back edge) and v2 too.
	if !lv.LiveOut(loop, v0) || !lv.LiveOut(loop, v1) || !lv.LiveOut(loop, v2) {
		t.Error("loop out set wrong")
	}
	// Entry has nothing live in.
	if n := len(lv.In(f.Entry.ID)); n != 0 {
		t.Errorf("entry live-in = %d regs, want 0", n)
	}
	// The lists are ascending and exact.
	if got, want := lv.In(loop.ID), []ir.Reg{v0, v1}; !slices.Equal(got, want) {
		t.Errorf("loop live-in = %v, want %v", got, want)
	}
	if got, want := lv.Out(loop.ID), []ir.Reg{v0, v1, v2}; !slices.Equal(got, want) {
		t.Errorf("loop live-out = %v, want %v", got, want)
	}
}
