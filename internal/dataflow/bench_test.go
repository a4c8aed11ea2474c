package dataflow_test

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/machine"
	"repro/internal/regalloc"
)

// BenchmarkLiveness solves liveness for every function of 20 profiled
// programs (seeds 1-20) of the Default and Hostile families, before
// allocation (virtual registers) and after it (physical registers
// only); one iteration solves the whole corpus.
func BenchmarkLiveness(b *testing.B) {
	for _, fam := range []struct {
		name string
		cfg  irgen.Config
	}{{"default", irgen.Default()}, {"hostile", irgen.Hostile()}} {
		var before, after []*ir.Func
		for seed := uint64(1); seed <= 20; seed++ {
			p := profiled(b, seed, fam.cfg)
			before = append(before, p.Clone().FuncsInOrder()...)
			if _, err := regalloc.AllocateProgram(p, machine.PARISC(), 1, regalloc.Options{}); err != nil {
				b.Fatal(err)
			}
			after = append(after, p.FuncsInOrder()...)
		}
		for _, stage := range []struct {
			name  string
			funcs []*ir.Func
		}{{"before", before}, {"after", after}} {
			b.Run(fam.name+"/"+stage.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, f := range stage.funcs {
						dataflow.ComputeLiveness(f)
					}
				}
			})
		}
	}
}
