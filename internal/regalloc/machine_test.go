// machine_test.go pins the machine-priced spill selection
// (Options.MachineCosts) to its two contracts: the classic preset is
// byte-identical to the uniform allocator, and skewed store:load
// presets pick spill sets that are no more expensive under their own
// pricing. It lives in an external test package because it drives the
// allocator through irgen, which itself imports regalloc.
package regalloc_test

import (
	"testing"

	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/regalloc"
)

// allocText generates seed under cfg, allocates it for m with opts,
// and returns the canonical text of the allocated program.
func allocText(t *testing.T, seed uint64, cfg irgen.Config, m *machine.Desc, opts regalloc.Options) string {
	t.Helper()
	p := irgen.Generate(seed, cfg)
	if _, err := regalloc.AllocateProgram(p, m, 1, opts); err != nil {
		t.Fatalf("seed %d @%s: %v", seed, m.Name, err)
	}
	return irtext.Print(p)
}

// TestClassicMachinePricingByteIdentical: under the classic preset
// (unit store and load costs) machine pricing must reproduce the
// uniform allocator's output byte for byte — same scores, same
// tie-breaks, same spill code. This is the ISSUE 10 pin that keeps the
// paper-reproduction numbers untouched by the new mode.
func TestClassicMachinePricingByteIdentical(t *testing.T) {
	classic, err := machine.Preset("classic")
	if err != nil {
		t.Fatal(err)
	}
	families := []struct {
		name string
		cfg  irgen.Config
	}{
		{"default", irgen.Default()},
		{"crossover", irgen.Crossover()},
	}
	for _, fam := range families {
		for seed := uint64(0); seed < 20; seed++ {
			uni := allocText(t, seed, fam.cfg, classic, regalloc.Options{})
			mach := allocText(t, seed, fam.cfg, classic, regalloc.Options{MachineCosts: true})
			if uni != mach {
				t.Fatalf("%s seed %d: classic machine-priced allocation diverges from uniform", fam.name, seed)
			}
		}
	}
}

// TestSkewedPresetsDiverge: presets whose store:load ratio is not 1:1
// (deep-pipeline 2:3, slow-memory 8:10) must pick different spills
// than the uniform allocator on some crossover seeds — otherwise the
// mode is dead code — while every unit-ratio preset (classic,
// cheap-spill, dual-issue's effective 1:1, tight-loop) must stay
// byte-identical, because unit pricing reproduces the uniform score
// integer for integer.
func TestSkewedPresetsDiverge(t *testing.T) {
	diverged := map[string]int{}
	presets := machine.Presets()
	for seed := uint64(1); seed <= 60; seed++ {
		uni := allocText(t, seed, irgen.Crossover(), machine.PARISC(), regalloc.Options{})
		for _, d := range presets {
			mach := allocText(t, seed, irgen.Crossover(), d, regalloc.Options{MachineCosts: true})
			if mach != uni {
				diverged[d.Name]++
			}
		}
	}
	for _, name := range []string{"deep-pipeline", "slow-memory"} {
		if diverged[name] == 0 {
			t.Errorf("%s: machine pricing never changed an allocation across 60 crossover seeds", name)
		}
	}
	for _, name := range []string{"classic", "cheap-spill", "dual-issue", "tight-loop"} {
		if diverged[name] != 0 {
			t.Errorf("%s: unit-ratio preset diverged from uniform on %d seeds", name, diverged[name])
		}
	}
}

// spillBill prices a program's spilled webs under the given latencies:
// each spilled def executes one store and each use one load, weighted
// by the block execution counts the allocator recorded in SpillWebs.
func spillBill(res map[string]*regalloc.Result, store, load int64) int64 {
	var total int64
	for _, r := range res {
		for _, w := range r.SpillWebs {
			total += w.DefWeight*store + w.UseWeight*load
		}
	}
	return total
}

// TestMachinePricingCostMonotonic: per preset, the machine-priced
// allocator's aggregate spill bill over 100 crossover seeds — priced
// with that preset's own store/load latencies — must not exceed the
// uniform allocator's. Per-seed monotonicity is not guaranteed (the
// score divides by interference degree and a different first spill
// reshapes later rounds), but the mode must pay for itself in
// aggregate or it is mispricing.
func TestMachinePricingCostMonotonic(t *testing.T) {
	for _, d := range machine.Presets() {
		store, load := d.Costs.StoreCost(), d.Costs.LoadCost()
		var uniTotal, machTotal int64
		for seed := uint64(1); seed <= 100; seed++ {
			pu := irgen.Generate(seed, irgen.Crossover())
			ru, err := regalloc.AllocateProgram(pu, d, 1, regalloc.Options{})
			if err != nil {
				t.Fatalf("seed %d @%s uniform: %v", seed, d.Name, err)
			}
			pm := irgen.Generate(seed, irgen.Crossover())
			rm, err := regalloc.AllocateProgram(pm, d, 1, regalloc.Options{MachineCosts: true})
			if err != nil {
				t.Fatalf("seed %d @%s machine: %v", seed, d.Name, err)
			}
			uniTotal += spillBill(ru, store, load)
			machTotal += spillBill(rm, store, load)
		}
		if machTotal > uniTotal {
			t.Errorf("%s: machine-priced spill bill %d exceeds uniform %d", d.Name, machTotal, uniTotal)
		}
		if uniTotal == 0 {
			t.Errorf("%s: no spills across 100 crossover seeds; pressure family too tame", d.Name)
		}
	}
}

// TestMachineAllocParallelMatchesSerial: the worker-pool path must
// produce the same machine-priced allocation as the serial path (and,
// under -race, prove the pricer is race-free).
func TestMachineAllocParallelMatchesSerial(t *testing.T) {
	d, err := machine.Preset("deep-pipeline")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		opts := regalloc.Options{MachineCosts: true}
		p1 := irgen.Generate(seed, irgen.Crossover())
		if _, err := regalloc.AllocateProgram(p1, d, 1, opts); err != nil {
			t.Fatal(err)
		}
		p4 := irgen.Generate(seed, irgen.Crossover())
		if _, err := regalloc.AllocateProgram(p4, d, 4, opts); err != nil {
			t.Fatal(err)
		}
		if irtext.Print(p1) != irtext.Print(p4) {
			t.Fatalf("seed %d: parallel machine-priced allocation differs from serial", seed)
		}
	}
}
