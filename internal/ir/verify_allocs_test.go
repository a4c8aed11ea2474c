package ir_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
)

// TestVerifyAllocs holds ir.Verify to at most three allocations per
// function over seeds 1-20 of irgen.Default and irgen.Hostile, a guard
// that does not depend on the host's speed. Verify runs on every
// parse, inside every PST build and after every placement edit.
func TestVerifyAllocs(t *testing.T) {
	for _, fam := range []struct {
		name string
		cfg  irgen.Config
	}{{"default", irgen.Default()}, {"hostile", irgen.Hostile()}} {
		var funcs []*ir.Func
		for seed := uint64(1); seed <= 20; seed++ {
			funcs = append(funcs, irgen.Generate(seed, fam.cfg).FuncsInOrder()...)
		}
		allocs := testing.AllocsPerRun(10, func() {
			for _, f := range funcs {
				if err := ir.Verify(f); err != nil {
					t.Fatal(err)
				}
			}
		})
		per := allocs / float64(len(funcs))
		t.Logf("%s: %.2f allocations per function over %d functions", fam.name, per, len(funcs))
		if per > 3 {
			t.Errorf("%s: Verify made %.2f allocations per function, want at most 3", fam.name, per)
		}
	}
}
