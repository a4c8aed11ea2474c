package dataflow_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/machine"
	"repro/internal/regalloc"
	"repro/internal/strategy"
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

// BenchmarkPatchApply patches the liveness of every placed function of
// 20 allocated irgen.Default programs after its hierarchical-jump
// placement; one iteration patches the whole corpus.
func BenchmarkPatchApply(b *testing.B) {
	type edit struct {
		f     *ir.Func
		lv    dataflow.Liveness
		delta *core.Delta
		newTo map[*ir.Block]*ir.Block
	}
	var edits []edit
	for seed := uint64(1); seed <= 20; seed++ {
		p := profiled(b, seed, irgen.Default())
		if _, err := regalloc.AllocateProgram(p, machine.PARISC(), 1, regalloc.Options{}); err != nil {
			b.Fatal(err)
		}
		for _, f := range p.FuncsInOrder() {
			if len(f.UsedCalleeSaved) == 0 {
				continue
			}
			sets, err := strategy.ComputeCachedFor(f, strategy.HierarchicalJump, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			lv := dataflow.ComputeLiveness(f)
			d, err := core.ApplyWithDelta(f, sets)
			if err != nil {
				b.Fatal(err)
			}
			newTo := make(map[*ir.Block]*ir.Block, len(d.Splits))
			for _, s := range d.Splits {
				newTo[s.NewBlock] = s.To
			}
			edits = append(edits, edit{f, *lv, d, newTo})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range edits {
			// PatchApply replaces the lists rather than editing them, so
			// a copy of the pre-edit solution can be patched again.
			lv := e.lv
			if !lv.PatchApply(e.f, e.delta.OldID, e.newTo, e.delta.Regs) {
				b.Fatal("PatchApply rejected the delta")
			}
		}
	}
}
