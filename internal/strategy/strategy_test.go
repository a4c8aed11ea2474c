package strategy

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/vm"
)

// buildDemo constructs a profiled, allocated two-function program with
// a cold call so every strategy has real work to do.
func buildDemo(t *testing.T) *ir.Program {
	t.Helper()
	prog := ir.NewProgram()

	leaf := ir.NewBuilder("leaf", 1)
	leaf.Block("entry")
	two := leaf.Const(2)
	r := leaf.Bin(ir.OpMul, leaf.F.Params[0], two)
	leaf.Ret(r)
	prog.Add(leaf.Finish())

	bu := ir.NewBuilder("work", 1)
	bu.Block("entry")
	acc := bu.F.NewVirt()
	bu.Mov(acc, bu.F.Params[0])
	mask := bu.Const(240)
	c := bu.Bin(ir.OpAnd, acc, mask)
	cold := bu.F.NewBlock("cold")
	join := bu.F.NewBlock("join")
	bu.Br(c, join, cold, 0, 0)
	bu.SetCurrent(cold)
	one := bu.Const(1)
	live := bu.Bin(ir.OpAdd, acc, one)
	res := bu.F.NewVirt()
	bu.Call(res, "leaf", acc)
	bu.BinInto(ir.OpAdd, acc, res, live)
	bu.Jmp(join, 0)
	bu.SetCurrent(join)
	bu.Ret(acc)
	prog.Add(bu.Finish())

	main := ir.NewBuilder("main", 1)
	main.Block("entry")
	total := main.F.NewVirt()
	i := main.F.NewVirt()
	main.ConstInto(total, 0)
	main.ConstInto(i, 0)
	loop := main.F.NewBlock("loop")
	exit := main.F.NewBlock("exit")
	main.Jmp(loop, 0)
	main.SetCurrent(loop)
	r2 := main.F.NewVirt()
	main.Call(r2, "work", i)
	main.BinInto(ir.OpAdd, total, total, r2)
	one2 := main.Const(1)
	main.BinInto(ir.OpAdd, i, i, one2)
	c2 := main.Bin(ir.OpCmpLT, i, main.F.Params[0])
	main.Br(c2, loop, exit, 0, 0)
	main.SetCurrent(exit)
	main.Ret(total)
	prog.Add(main.Finish())
	prog.Main = "main"

	if err := ir.VerifyProgram(prog); err != nil {
		t.Fatal(err)
	}
	if _, err := profile.Collect(prog, vm.Config{}, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := regalloc.AllocateProgram(prog, machine.PARISC(), 1, regalloc.Options{}); err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestPlaceProgramAllStrategies(t *testing.T) {
	base := buildDemo(t)
	var ref int64
	for i, s := range All {
		clone := base.Clone()
		if err := PlaceProgramFor(clone, s, nil, 1, nil); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if err := ir.VerifyProgram(clone); err != nil {
			t.Fatalf("%v: placed program invalid: %v", s, err)
		}
		m := vm.New(clone, vm.Config{Machine: machine.PARISC()})
		v, err := m.Run(100)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if i == 0 {
			ref = v
		} else if v != ref {
			t.Errorf("%v computes %d, want %d", s, v, ref)
		}
	}
}

func TestComputeUnknownStrategy(t *testing.T) {
	base := buildDemo(t)
	if _, err := ComputeCachedFor(base.Func("work"), Strategy(99), nil, nil); err == nil {
		t.Error("unknown strategy should error")
	}
}

func TestComputeWithModelOverride(t *testing.T) {
	base := buildDemo(t)
	f := base.Func("work")
	if len(f.UsedCalleeSaved) == 0 {
		t.Skip("work does not use callee-saved registers under this allocation")
	}
	real, err := ComputeCachedFor(f, HierarchicalExec, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A model that prefers hot locations must not beat the real model
	// under the real model's costing.
	info := analysis.For(f)
	tree, err := info.PST()
	if err != nil {
		t.Fatal(err)
	}
	broken, _, err := core.Hierarchical(f, tree, info.ShrinkwrapSeed(), hotModel{})
	if err != nil {
		t.Fatal(err)
	}
	rc := core.TotalCost(core.ExecCountModel{}, real)
	bc := core.TotalCost(core.ExecCountModel{}, broken)
	if rc > bc {
		t.Errorf("real-model placement costs %d, broken-model %d; optimal placement beaten", rc, bc)
	}
}

// hotModel inverts the execution count model: cold locations look
// expensive, hot locations look free.
type hotModel struct{}

func (hotModel) LocationCost(k core.CostKind, l core.Location, seed bool) int64 {
	return 1 << 20 / (1 + l.Weight())
}
func (hotModel) Name() string { return "broken-hot" }

// TestModelFor: the machine-parameterized model selection — nil falls
// back to the paper's unit models, a machine description yields its
// MachineModel with the right jump-charging flavor, and non-
// hierarchical strategies consume no model on any machine.
func TestModelFor(t *testing.T) {
	d, err := machine.Preset("deep-pipeline")
	if err != nil {
		t.Fatal(err)
	}
	unit := map[Strategy]core.CostModel{HierarchicalExec: core.ExecCountModel{}, HierarchicalJump: core.JumpEdgeModel{}}
	for _, s := range All {
		if got, want := s.ModelFor(nil), unit[s]; got != want {
			t.Errorf("%s.ModelFor(nil) = %v, want %v", s, got, want)
		}
		if !s.IsHierarchical() {
			if s.ModelFor(d) != nil {
				t.Errorf("%s.ModelFor(machine) should be nil", s)
			}
			continue
		}
		m, ok := s.ModelFor(d).(core.MachineModel)
		if !ok || m.Desc != d {
			t.Fatalf("%s.ModelFor = %v, want MachineModel on %s", s, s.ModelFor(d), d.Name)
		}
		if m.ChargeJumps != (s == HierarchicalJump) {
			t.Errorf("%s: ChargeJumps = %v", s, m.ChargeJumps)
		}
	}
}

// TestPlaceProgramForClassicIdentity: placing on the classic preset is
// byte-identical to placing on the default (nil) machine — the
// machine threading changes nothing on the paper's machine.
func TestPlaceProgramForClassicIdentity(t *testing.T) {
	classic, err := machine.Preset("classic")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All {
		a := buildDemo(t)
		b := a.Clone()
		if err := PlaceProgramFor(a, s, nil, 1, nil); err != nil {
			t.Fatal(err)
		}
		if err := PlaceProgramFor(b, s, classic, 1, nil); err != nil {
			t.Fatal(err)
		}
		va := vm.New(a, vm.Config{Machine: machine.PARISC()})
		vb := vm.New(b, vm.Config{Machine: classic})
		ra, err := va.Run(100)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := vb.Run(100)
		if err != nil {
			t.Fatal(err)
		}
		if ra != rb || va.Stats.Overhead() != vb.Stats.Overhead() {
			t.Errorf("%s: classic placement diverges from default (val %d/%d, overhead %d/%d)",
				s, ra, rb, va.Stats.Overhead(), vb.Stats.Overhead())
		}
	}
}

// TestParse: every strategy's name parses back to it, and an unknown
// name is an error naming it.
func TestParse(t *testing.T) {
	for _, s := range All {
		got, err := Parse(s.String())
		if err != nil || got != s {
			t.Errorf("Parse(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	if _, err := Parse("best"); err == nil || !strings.Contains(err.Error(), `"best"`) {
		t.Errorf("Parse(best) error = %v, want one naming it", err)
	}
}

// TestPlaceProgramForNamesPanickingFunction: a panic while placing one
// function comes back prefixed with that function's name, like every
// other placement error, and still carries the *par.PanicError the
// service answers 500 for. par.Do numbers items within NeedsPlacement,
// so its index alone does not say which function failed.
func TestPlaceProgramForNamesPanickingFunction(t *testing.T) {
	for _, parallelism := range []int{1, 4} {
		prog := buildDemo(t)
		work := prog.Func("work")
		if len(work.UsedCalleeSaved) == 0 {
			t.Fatal("work does not need placement")
		}
		work.Entry.Instrs = append([]*ir.Instr{nil}, work.Entry.Instrs...)
		err := PlaceProgramFor(prog, HierarchicalJump, nil, parallelism, nil)
		var pe *par.PanicError
		if err == nil || !strings.HasPrefix(err.Error(), "work: ") || !errors.As(err, &pe) {
			t.Errorf("parallelism %d: error %v, want a *par.PanicError prefixed %q", parallelism, err, "work: ")
		}
	}
}
