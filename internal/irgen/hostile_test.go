package irgen

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/vm"
)

// TestHostileOracleSweep: the estimator-hostile family passes the full
// differential oracle — every strategy agrees on semantics and the
// cost models hold — and keeps exercising callee-saved placement.
func TestHostileOracleSweep(t *testing.T) {
	n := uint64(40)
	interesting := 0
	for seed := uint64(0); seed < n; seed++ {
		prog := Generate(seed, Hostile())
		r := Check(prog, Options{Args: []int64{int64(seed % 7)}})
		if r.Failed() {
			t.Fatalf("seed %d: %d violations, first: %v", seed, len(r.Violations), r.Violations[0])
		}
		if r.CalleeSavedFuncs > 0 {
			interesting++
		}
	}
	if interesting < int(n)/3 {
		t.Errorf("only %d/%d hostile seeds exercised callee-saved placement", interesting, n)
	}
}

// TestHostileProfilesDivergeFromEstimates: the family exists to make
// static estimates wrong. Align one clone by the machine estimator's
// weights and another by a measured profile; for most seeds at least
// one function must come out with a different block order — otherwise
// the workload could never show a measured-over-static win.
func TestHostileProfilesDivergeFromEstimates(t *testing.T) {
	const n = 30
	diverged := 0
	for seed := uint64(0); seed < n; seed++ {
		est := Generate(seed, Hostile())
		meas := Generate(seed, Hostile())
		profile.Estimate(est, machine.PARISC())
		if _, err := profile.Collect(meas, vm.Config{}, int64(seed%7)); err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		if alignOrdersDiffer(est, meas) {
			diverged++
		}
	}
	if diverged < n/2 {
		t.Errorf("only %d/%d hostile seeds diverge between estimated and measured alignment", diverged, n)
	}
}

// alignOrdersDiffer aligns both programs with their current weights
// and reports whether any function's block order differs.
func alignOrdersDiffer(a, b *ir.Program) bool {
	af, bf := a.FuncsInOrder(), b.FuncsInOrder()
	differ := false
	for i := range af {
		layout.Align(af[i])
		layout.Align(bf[i])
		for j := range af[i].Blocks {
			if af[i].Blocks[j].Name != bf[i].Blocks[j].Name {
				differ = true
			}
		}
	}
	return differ
}
