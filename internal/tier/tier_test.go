package tier_test

import (
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/tier"
	"repro/internal/vm"
)

// prep generates a hostile program and runs it through estimate +
// allocate — the state tier.Run expects its input in.
func prep(t *testing.T, seed uint64, mach *machine.Desc) *ir.Program {
	t.Helper()
	prog := irgen.Generate(seed, irgen.Hostile())
	profile.Estimate(prog, mach)
	if _, err := regalloc.AllocateProgram(prog, mach, 1, regalloc.Options{}); err != nil {
		t.Fatalf("seed %d: allocate: %v", seed, err)
	}
	return prog
}

// placeStatic aligns and places a clone with its current (static)
// weights — the untiered comparison arm.
func placeStatic(t *testing.T, prog *ir.Program, mach *machine.Desc) *ir.Program {
	t.Helper()
	p := prog.Clone()
	for _, f := range p.FuncsInOrder() {
		layout.Align(f)
	}
	if err := strategy.PlaceProgramFor(p, strategy.HierarchicalJump, mach, 1, nil); err != nil {
		t.Fatalf("static place: %v", err)
	}
	return p
}

// TestTieredMatchesUntieredValue: across hostile seeds, the tiered run
// returns exactly the value the untiered statically placed program
// computes, its merged statistics are the exact sum of the per-tier
// counters, and at a boundary tier 0 counted exactly the quantum.
func TestTieredMatchesUntieredValue(t *testing.T) {
	mach := machine.PARISC()
	const quantum = 500
	boundaries := 0
	for seed := uint64(0); seed < 12; seed++ {
		prog := prep(t, seed, mach)
		args := []int64{int64(seed % 7)}

		static := placeStatic(t, prog, mach)
		m := vm.New(static, vm.Config{Machine: mach})
		want, err := m.Run(args...)
		if err != nil {
			t.Fatalf("seed %d: untiered run: %v", seed, err)
		}

		res, err := tier.Run(prog, tier.Config{
			Machine:     mach,
			Strategy:    strategy.HierarchicalJump,
			Quantum:     quantum,
			Parallelism: 1,
			Engine:      vm.EngineRegcode,
		}, args...)
		if err != nil {
			t.Fatalf("seed %d: tiered run: %v", seed, err)
		}
		if res.Value != want {
			t.Errorf("seed %d: tiered value %d, untiered %d", seed, res.Value, want)
		}
		merged := res.Tier0.Snapshot()
		merged.Merge(&res.Tier1)
		if !reflect.DeepEqual(merged, res.Stats) {
			t.Errorf("seed %d: merged stats %+v != reported %+v", seed, merged, res.Stats)
		}
		if res.Boundary {
			boundaries++
			if res.Tier0.Instrs != quantum {
				t.Errorf("seed %d: tier 0 counted %d instrs at the boundary, want exactly %d",
					seed, res.Tier0.Instrs, quantum)
			}
			if res.Replaced == 0 && len(strategy.NeedsPlacement(res.Final)) > 0 {
				t.Errorf("seed %d: boundary hit but nothing re-placed", seed)
			}
		}
	}
	if boundaries < 6 {
		t.Errorf("only %d/12 hostile seeds hit a tier boundary at quantum %d; suite too short", boundaries, quantum)
	}
}

// TestTierStepAccountingAtHalt: a tiered run whose budget runs out
// must report the step-limit error with Stats.Instrs equal to the
// budget exactly — the same contract the untiered VM pins — both when
// tier 1 halts and when the quantum itself consumes the whole budget.
func TestTierStepAccountingAtHalt(t *testing.T) {
	mach := machine.PARISC()
	const quantum, budget = 400, 900
	checked := 0
	for seed := uint64(0); seed < 12 && checked < 4; seed++ {
		prog := prep(t, seed, mach)
		args := []int64{3}

		// Skip programs short enough to finish inside the budget.
		static := placeStatic(t, prog, mach)
		m := vm.New(static, vm.Config{Machine: mach})
		if _, err := m.Run(args...); err != nil || m.Stats.Instrs <= 2*budget {
			continue
		}
		checked++

		res, err := tier.Run(prog.Clone(), tier.Config{
			Machine:     mach,
			Strategy:    strategy.HierarchicalJump,
			Quantum:     quantum,
			MaxSteps:    budget,
			Parallelism: 1,
			Engine:      vm.EngineRegcode,
		}, args...)
		if !vm.IsStepLimit(err) {
			t.Fatalf("seed %d: want step-limit halt, got %v", seed, err)
		}
		if res == nil || res.Stats.Instrs != budget {
			t.Fatalf("seed %d: halted tiered run counted %d instrs, want exactly %d", seed, res.Stats.Instrs, budget)
		}
		if !res.Boundary || res.Tier0.Instrs != quantum || res.Tier1.Instrs != budget-quantum {
			t.Errorf("seed %d: tier split %d/%d, want %d/%d",
				seed, res.Tier0.Instrs, res.Tier1.Instrs, quantum, budget-quantum)
		}

		// Quantum == budget: tier 0 exhausts everything; the boundary
		// still installs the re-placed program, but tier 1 never runs.
		res, err = tier.Run(prog.Clone(), tier.Config{
			Machine:     mach,
			Strategy:    strategy.HierarchicalJump,
			Quantum:     budget,
			MaxSteps:    budget,
			Parallelism: 1,
			Engine:      vm.EngineRegcode,
		}, args...)
		if !vm.IsStepLimit(err) {
			t.Fatalf("seed %d: quantum==budget: want step-limit halt, got %v", seed, err)
		}
		if res == nil || res.Stats.Instrs != budget || res.Tier1.Instrs != 0 {
			t.Fatalf("seed %d: quantum==budget: counted %d (+%d tier-1), want %d (+0)",
				seed, res.Stats.Instrs, res.Tier1.Instrs, budget)
		}
	}
	if checked == 0 {
		t.Fatal("no hostile seed produced a program long enough to halt; lower the budget")
	}
}

// TestTierNoBoundaryIsUntiered: with a quantum the program finishes
// inside, tiering is the identity — same value, and the final program
// is byte-identical to the statically aligned and placed one.
func TestTierNoBoundaryIsUntiered(t *testing.T) {
	mach := machine.PARISC()
	for seed := uint64(0); seed < 6; seed++ {
		prog := prep(t, seed, mach)
		args := []int64{int64(seed % 5)}

		static := placeStatic(t, prog, mach)
		m := vm.New(static, vm.Config{Machine: mach})
		want, err := m.Run(args...)
		if err != nil {
			t.Fatalf("seed %d: untiered run: %v", seed, err)
		}

		res, err := tier.Run(prog, tier.Config{
			Machine:     mach,
			Strategy:    strategy.HierarchicalJump,
			Quantum:     1 << 26,
			Parallelism: 1,
			Engine:      vm.EngineRegcode,
		}, args...)
		if err != nil {
			t.Fatalf("seed %d: tiered run: %v", seed, err)
		}
		if res.Boundary {
			t.Fatalf("seed %d: boundary at quantum 1<<26", seed)
		}
		if res.Value != want {
			t.Errorf("seed %d: value %d, untiered %d", seed, res.Value, want)
		}
		if got, wantText := irtext.Print(res.Final), irtext.Print(static); got != wantText {
			t.Errorf("seed %d: no-boundary final program differs from the static placement", seed)
		}
	}
}

// TestTierEngineParity: the tiered pipeline is engine-invariant — on
// regcode the tiered run agrees with the tree reference on values,
// statistics, boundary counters, and the recompiled tier-1 program
// byte for byte, and the tier-1 program itself holds engine parity on
// values, edge counts, and step-limit halts.
func TestTierEngineParity(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		prog := irgen.Generate(seed, irgen.Hostile())
		args := []int64{int64(seed % 7)}
		for _, m := range irgen.TierParitySweep(prog, vm.EngineRegcode, args, 700, 1<<22) {
			t.Errorf("seed %d: %s", seed, m)
		}
	}
}
