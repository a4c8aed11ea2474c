package ir

import (
	"strings"
	"testing"
)

// TestVerifyViolationOrder pins Verify's texts and their order where
// it keeps block names and reached blocks: a name used three times,
// unreachable blocks, IDs out of layout order, and an edge into
// another function's block, which sends the reachability walk off
// f.Blocks.
func TestVerifyViolationOrder(t *testing.T) {
	ret := func(b *Block) { b.Append(&Instr{Op: OpRet, Dst: NoReg, Src1: NoReg, Src2: NoReg}) }
	jmp := func(f *Func, from, to *Block) {
		from.Append(&Instr{Op: OpJmp, Dst: NoReg, Src1: NoReg, Src2: NoReg, Then: to})
		f.AddEdge(from, to, Jump, 1)
	}
	// entry -> x -> y; two more blocks named x that nothing reaches.
	names := func() *Func {
		f := NewFunc("f")
		entry, x, y := f.NewBlock("entry"), f.NewBlock("x"), f.NewBlock("y")
		jmp(f, entry, x)
		jmp(f, x, y)
		ret(y)
		ret(f.NewBlock("x"))
		ret(f.NewBlock("x"))
		f.RenumberBlocks()
		return f
	}
	swapped := func() *Func {
		f := names()
		f.Blocks[1].ID, f.Blocks[2].ID = 2, 1
		return f
	}
	foreign := func() *Func {
		f := names()
		g := NewFunc("g")
		for _, name := range []string{"g0", "g1", "g2", "g3"} {
			ret(g.NewBlock(name))
		}
		g.RenumberBlocks()
		// y jumps to g3, which has the ID of the second x: an ID-keyed
		// walk would call that x reached.
		y := f.Blocks[2]
		y.Instrs = nil
		jmp(f, y, g.Blocks[3])
		return f
	}
	cases := []struct {
		name string
		f    *Func
		want []string
	}{
		{"names", names(), []string{
			"ir.Verify(f): duplicate block name x",
			"ir.Verify(f): duplicate block name x",
			"ir.Verify(f): block x is unreachable from entry",
			"ir.Verify(f): block x is unreachable from entry",
		}},
		{"swapped", swapped(), []string{
			"ir.Verify(f): block x has ID 2 at layout position 1 (call RenumberBlocks)",
			"ir.Verify(f): block y has ID 1 at layout position 2 (call RenumberBlocks)",
			"ir.Verify(f): duplicate block name x",
			"ir.Verify(f): duplicate block name x",
			"ir.Verify(f): block x is unreachable from entry",
			"ir.Verify(f): block x is unreachable from entry",
		}},
		{"foreign", foreign(), []string{
			"ir.Verify(f): duplicate block name x",
			"ir.Verify(f): duplicate block name x",
			"ir.Verify(f): block x is unreachable from entry",
			"ir.Verify(f): block x is unreachable from entry",
		}},
	}
	for _, c := range cases {
		err := Verify(c.f)
		var got []string
		if err != nil {
			got = strings.Split(err.Error(), "\n")
		}
		if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
			t.Errorf("%s: Verify =\n%s\nwant\n%s", c.name, strings.Join(got, "\n"), strings.Join(c.want, "\n"))
		}
	}
}
