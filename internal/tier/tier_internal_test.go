package tier

import (
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
)

// buildTestProgram hand-builds a two-procedure program with a hot
// call-carrying loop and a value live across the call, so allocation
// assigns a callee-saved register and placement has real work.
func buildTestProgram() *ir.Program {
	prog := ir.NewProgram()

	bu := ir.NewBuilder("p0", 1)
	bu.Block("entry")
	acc := bu.F.NewVirt()
	bu.Mov(acc, bu.F.Params[0])
	iv := bu.F.NewVirt()
	bu.ConstInto(iv, 0)
	header := bu.F.NewBlock("lp")
	exit := bu.F.NewBlock("dn")
	bu.Jmp(header, 0)
	bu.SetCurrent(header)
	three := bu.Const(3)
	bu.BinInto(ir.OpAdd, acc, acc, three)
	one := bu.Const(1)
	bu.BinInto(ir.OpAdd, iv, iv, one)
	tr := bu.Const(8)
	c := bu.Bin(ir.OpCmpLT, iv, tr)
	bu.Br(c, header, exit, 0, 0)
	bu.SetCurrent(exit)
	bu.Ret(acc)
	prog.Add(bu.Finish())

	bu = ir.NewBuilder("main", 1)
	bu.Block("entry")
	t := bu.F.NewVirt()
	bu.Mov(t, bu.F.Params[0])
	i := bu.F.NewVirt()
	bu.ConstInto(i, 0)
	loop := bu.F.NewBlock("loop")
	exit = bu.F.NewBlock("exit")
	bu.Jmp(loop, 0)
	bu.SetCurrent(loop)
	five := bu.Const(5)
	live := bu.Bin(ir.OpMul, t, five)
	r := bu.F.NewVirt()
	bu.Call(r, "p0", t)
	bu.BinInto(ir.OpAdd, t, r, live)
	mask := bu.Const(0xffff)
	bu.BinInto(ir.OpAnd, t, t, mask)
	one = bu.Const(1)
	bu.BinInto(ir.OpAdd, i, i, one)
	n := bu.Const(50)
	c = bu.Bin(ir.OpCmpLT, i, n)
	bu.Br(c, loop, exit, 0, 0)
	bu.SetCurrent(exit)
	bu.Ret(t)
	prog.Add(bu.Finish())

	prog.Main = "main"
	return prog
}

// TestStaticEqualProfileIsNoOp: the boundary's weight write-back with
// a profile equal to the static estimate must be the identity — the
// re-aligned, re-placed program is byte-identical to the statically
// aligned and placed one. The test replays the boundary mechanics on
// an unrun tier-0 clone: placement copies each split edge's weight
// onto its replacement edges, so mapping back through the recorded
// splits must reconstruct the original static weights exactly.
//
// testdata/noop.ir (a generator program pinned because its placement
// puts spill code on an edge) makes the edge-split mapping path
// non-vacuous; the hierarchical-exec strategy is the one that chooses
// the edge location under the estimated weights.
func TestStaticEqualProfileIsNoOp(t *testing.T) {
	mach := machine.PARISC()
	cfg := Config{Machine: mach, Strategy: strategy.HierarchicalExec, Parallelism: 1}

	src, err := os.ReadFile("testdata/noop.ir")
	if err != nil {
		t.Fatal(err)
	}
	base, err := irtext.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	profile.Estimate(base, mach)
	if _, err := regalloc.AllocateProgram(base, mach, 1, regalloc.Options{}); err != nil {
		t.Fatalf("allocate: %v", err)
	}
	a := base.Clone()
	b := base.Clone()

	// Arm A: tier-0 clone placed exactly as Run places it, weights
	// mapped back without running (i.e. a measured profile that equals
	// the static estimate).
	p0 := a.Clone()
	corr, err := edgeCorrespondence(p0, a)
	if err != nil {
		t.Fatalf("correspondence: %v", err)
	}
	for _, f := range p0.FuncsInOrder() {
		layout.Align(f)
	}
	splitFrom, err := placeWithSplits(p0, cfg, analysis.NewCache())
	if err != nil {
		t.Fatalf("tier-0 placement: %v", err)
	}
	if len(splitFrom) == 0 {
		t.Fatal("placement split no edges; the no-op check is vacuous")
	}
	for e0, e := range corr {
		if fe := splitFrom[e0]; fe != nil {
			e.Weight = fe.Weight
		} else {
			e.Weight = e0.Weight
		}
	}

	// The write-back must have reconstructed the static weights bit
	// for bit before any re-placement happens.
	ae, be := a.FuncsInOrder(), b.FuncsInOrder()
	for i := range ae {
		aEdges, bEdges := ae[i].Edges(), be[i].Edges()
		for j := range aEdges {
			if aEdges[j].Weight != bEdges[j].Weight {
				t.Fatalf("%s edge %d: mapped weight %d != static %d",
					ae[i].Name, j, aEdges[j].Weight, bEdges[j].Weight)
			}
		}
	}

	if err := alignAndPlace(a, cfg, nil); err != nil {
		t.Fatalf("arm A: %v", err)
	}
	if err := alignAndPlace(b, cfg, nil); err != nil {
		t.Fatalf("arm B: %v", err)
	}
	if got, want := irtext.Print(a), irtext.Print(b); got != want {
		t.Errorf("static-equal tiering is not a no-op:\n-- tiered --\n%s\n-- static --\n%s", got, want)
	}
}

// TestPlaceWithSplitsNamesPanickingFunction: a panic while placing one
// function of the tier-0 clone comes back prefixed with that
// function's name, like the placement's other errors, and still
// carries the *par.PanicError.
func TestPlaceWithSplitsNamesPanickingFunction(t *testing.T) {
	mach := machine.PARISC()
	for _, parallelism := range []int{1, 4} {
		prog := buildTestProgram()
		profile.Estimate(prog, mach)
		if _, err := regalloc.AllocateProgram(prog, mach, 1, regalloc.Options{}); err != nil {
			t.Fatal(err)
		}
		f := prog.Func("main")
		if len(f.UsedCalleeSaved) == 0 {
			t.Fatal("main does not need placement")
		}
		f.Entry.Instrs = append([]*ir.Instr{nil}, f.Entry.Instrs...)
		cfg := Config{Machine: mach, Strategy: strategy.HierarchicalJump, Parallelism: parallelism}
		_, err := placeWithSplits(prog, cfg, analysis.NewCache())
		var pe *par.PanicError
		if err == nil || !strings.HasPrefix(err.Error(), "main: ") || !errors.As(err, &pe) {
			t.Errorf("parallelism %d: error %v, want a *par.PanicError prefixed %q", parallelism, err, "main: ")
		}
	}
}
