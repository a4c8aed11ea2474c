package vm_test

import (
	"testing"

	"repro/internal/irgen"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
)

// TestGenericDispatchShare: on the programs the placement service runs
// (irgen.Hostile, allocated and hierarchically placed on the classic
// preset, args seed%7), at most 1% of the executed regcode
// instructions switch a second time. Before the const-fed forms were
// specialized by operator and relation, about 62% did. The count comes
// from the block counts of a profiling run of each placed program, so
// it does not depend on the host.
func TestGenericDispatchShare(t *testing.T) {
	mach, err := machine.Preset("classic")
	if err != nil {
		t.Fatal(err)
	}
	var second, total int64
	for seed := uint64(1); seed <= 50; seed++ {
		prog := irgen.Generate(seed, irgen.Hostile())
		arg := int64(seed % 7)
		if _, err := profile.Collect(prog, vm.Config{}, arg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := regalloc.AllocateProgram(prog, mach, 1, regalloc.Options{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := strategy.PlaceProgramFor(prog, strategy.HierarchicalJump, mach, 1, nil); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := profile.Collect(prog, vm.Config{Machine: mach}, arg); err != nil {
			t.Fatalf("seed %d: placed: %v", seed, err)
		}
		s, n := vm.DispatchShare(prog, mach)
		second += s
		total += n
	}
	share := float64(second) / float64(total)
	t.Logf("%d of %d executed instructions switch twice (%.3f%%)", second, total, 100*share)
	if total < 1_000_000 {
		t.Fatalf("only %d instructions executed; the sample no longer measures the service's mix", total)
	}
	if share > 0.01 {
		t.Errorf("%.2f%% of executed instructions switch twice, want at most 1%%", 100*share)
	}
}
