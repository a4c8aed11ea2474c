package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestMeasuredEqualsModeled: the dynamic overhead the VM measures by
// execution must equal the modeled overhead (profile-weighted count of
// flagged instructions) when the profiling input matches the measured
// run — the cost models' numbers are real, not estimates.
func TestMeasuredEqualsModeled(t *testing.T) {
	for _, name := range []string{"mcf", "crafty", "gzip"} {
		var p workload.BenchParams
		for _, q := range workload.SPECInt2000() {
			if q.Name == name {
				p = q
			}
		}
		prog := workload.Generate(p)
		if _, err := profile.Collect(prog, vm.Config{}, 0); err != nil {
			t.Fatal(err)
		}
		mach := machine.PARISC()
		if _, err := regalloc.AllocateProgram(prog, mach, 1, regalloc.Options{}); err != nil {
			t.Fatal(err)
		}
		for _, s := range Strategies {
			clone := prog.Clone()
			if err := strategy.PlaceProgramFor(clone, s.technique(), nil, 1, nil); err != nil {
				t.Fatalf("%s/%s: %v", name, s, err)
			}
			var modeled int64
			for _, f := range clone.FuncsInOrder() {
				modeled += core.DynamicOverhead(f)
			}
			v := vm.New(clone, vm.Config{Machine: mach})
			if _, err := v.Run(0); err != nil {
				t.Fatalf("%s/%s: %v", name, s, err)
			}
			if measured := v.Stats.Overhead(); measured != modeled {
				t.Errorf("%s/%s: measured overhead %d != modeled %d", name, s, measured, modeled)
			}
			// The same agreement must hold cycle for cycle under every
			// machine cost preset: the post-apply breakdown priced with
			// the preset on one side, the VM's weighted accounting on
			// the other. This pins model pricing and VM pricing to one
			// cost surface for every overhead class, not just a total.
			for _, d := range machine.Presets() {
				var wModeled int64
				for _, f := range clone.FuncsInOrder() {
					wModeled += core.Breakdown(f).Cost(d.Costs)
				}
				if wMeasured := v.Stats.WeightedOverhead(d.Costs); wMeasured != wModeled {
					t.Errorf("%s/%s@%s: weighted measured %d != modeled %d",
						name, s, d.Name, wMeasured, wModeled)
				}
			}
		}
	}
}

// TestNonOverheadInstrsIdentical: the three strategies must execute
// exactly the same program apart from the overhead instructions.
func TestNonOverheadInstrsIdentical(t *testing.T) {
	var p workload.BenchParams
	for _, q := range workload.SPECInt2000() {
		if q.Name == "parser" {
			p = q
		}
	}
	prog := workload.Generate(p)
	if _, err := profile.Collect(prog, vm.Config{}, 0); err != nil {
		t.Fatal(err)
	}
	mach := machine.PARISC()
	if _, err := regalloc.AllocateProgram(prog, mach, 1, regalloc.Options{}); err != nil {
		t.Fatal(err)
	}
	base := int64(-1)
	for _, s := range Strategies {
		clone := prog.Clone()
		if err := strategy.PlaceProgramFor(clone, s.technique(), nil, 1, nil); err != nil {
			t.Fatal(err)
		}
		v := vm.New(clone, vm.Config{Machine: mach})
		if _, err := v.Run(0); err != nil {
			t.Fatal(err)
		}
		// Jump-block jumps replace no original instruction; all other
		// overhead is additive too, so the original program's dynamic
		// length is Instrs - Overhead.
		useful := v.Stats.Instrs - v.Stats.Overhead()
		if base < 0 {
			base = useful
		} else if useful != base {
			t.Errorf("%s executes %d useful instructions, want %d", s, useful, base)
		}
	}
}
