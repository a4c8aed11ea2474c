package profile

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
)

// countdown builds main(n): loop calling helper(i) n times; helper
// branches on parity.
func countdown() *ir.Program {
	p := ir.NewProgram()

	hb := ir.NewBuilder("helper", 1)
	entry := hb.Block("entry")
	odd := hb.F.NewBlock("odd")
	even := hb.F.NewBlock("even")
	hb.SetCurrent(entry)
	two := hb.Const(2)
	r := hb.Bin(ir.OpRem, hb.F.Params[0], two)
	hb.Br(r, odd, even, 0, 0)
	hb.SetCurrent(odd)
	one := hb.Const(1)
	v := hb.Bin(ir.OpAdd, hb.F.Params[0], one)
	hb.Ret(v)
	hb.SetCurrent(even)
	hb.Ret(hb.F.Params[0])
	p.Add(hb.Finish())

	mb := ir.NewBuilder("main", 1)
	me := mb.Block("entry")
	loop := mb.F.NewBlock("loop")
	exit := mb.F.NewBlock("exit")
	mb.SetCurrent(me)
	i := mb.F.NewVirt()
	sum := mb.F.NewVirt()
	mb.ConstInto(i, 0)
	mb.ConstInto(sum, 0)
	mb.Jmp(loop, 0)
	mb.SetCurrent(loop)
	h := mb.F.NewVirt()
	mb.Call(h, "helper", i)
	mb.BinInto(ir.OpAdd, sum, sum, h)
	one = mb.Const(1)
	mb.BinInto(ir.OpAdd, i, i, one)
	c := mb.Bin(ir.OpCmpLT, i, mb.F.Params[0])
	mb.Br(c, loop, exit, 0, 0)
	mb.SetCurrent(exit)
	mb.Ret(sum)
	p.Add(mb.Finish())
	p.Main = "main"
	return p
}

func TestCollectAndConsistency(t *testing.T) {
	p := countdown()
	stats, err := Collect(p, vm.Config{}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Calls["helper"] != 10 {
		t.Errorf("helper invocations = %d, want 10", stats.Calls["helper"])
	}
	h := p.Func("helper")
	if h.EntryCount != 10 {
		t.Errorf("helper EntryCount = %d, want 10", h.EntryCount)
	}
	// helper sees i = 0..9: 5 odd, 5 even.
	entry := h.BlockByName("entry")
	oddE := entry.SuccEdge(h.BlockByName("odd"))
	evenE := entry.SuccEdge(h.BlockByName("even"))
	if oddE.Weight != 5 || evenE.Weight != 5 {
		t.Errorf("odd/even weights = %d/%d, want 5/5", oddE.Weight, evenE.Weight)
	}
	// Main's loop executed 10 times.
	m := p.Func("main")
	loop := m.BlockByName("loop")
	if loop.ExecCount() != 10 {
		t.Errorf("loop exec count = %d, want 10", loop.ExecCount())
	}
	if err := Consistent(p); err != nil {
		t.Errorf("profile inconsistent: %v", err)
	}
}

func TestConsistentDetectsCorruption(t *testing.T) {
	p := countdown()
	if _, err := Collect(p, vm.Config{}, 10); err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry edge (a self-edge would stay consistent since
	// it raises in and out counts together).
	m := p.Func("main")
	m.Entry.Succs[0].Weight += 5
	if err := Consistent(p); err == nil {
		t.Error("Consistent should detect flow corruption")
	}
}
