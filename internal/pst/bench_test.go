package pst_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/profile"
	"repro/internal/pst"
	"repro/internal/vm"
)

// built keeps BenchmarkBuild's result live.
var built *pst.PST

// BenchmarkBuild builds the PST of every function of 20 profiled
// irgen.Default programs (seeds 1-20), as a cold service request does
// for each function it places.
func BenchmarkBuild(b *testing.B) {
	var funcs []*ir.Func
	for seed := uint64(1); seed <= 20; seed++ {
		p := irgen.Generate(seed, irgen.Default())
		if _, err := profile.Collect(p, vm.Config{}, 5); err != nil {
			b.Fatal(err)
		}
		funcs = append(funcs, p.FuncsInOrder()...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range funcs {
			t, err := pst.Build(f)
			if err != nil {
				b.Fatal(err)
			}
			built = t
		}
	}
}
