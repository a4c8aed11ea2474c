package regalloc_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/machine"
	"repro/internal/regalloc"
)

// BenchmarkAllocate allocates a fixed corpus of 20 profiled
// irgen.Default programs (seeds 1-20) for the paper's machine; one
// iteration allocates the whole corpus.
func BenchmarkAllocate(b *testing.B) {
	benchmarkAllocate(b, profiled(b, irgen.Default(), 20))
}

func benchmarkAllocate(b *testing.B, corpus []*ir.Program) {
	m := machine.PARISC()
	progs := make([]*ir.Program, len(corpus))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, p := range corpus {
			progs[j] = p.Clone()
		}
		b.StartTimer()
		for _, p := range progs {
			if _, err := regalloc.AllocateProgram(p, m, 1, regalloc.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAllocateHostile allocates 40 profiled irgen.Hostile
// programs (seeds 1-40), whose functions are larger and spill more;
// one iteration allocates the whole corpus.
func BenchmarkAllocateHostile(b *testing.B) {
	benchmarkAllocate(b, profiled(b, irgen.Hostile(), 40))
}
