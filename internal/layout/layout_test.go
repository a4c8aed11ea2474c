package layout

import (
	"testing"

	"repro/internal/cfgtest"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/pst"
	"repro/internal/regalloc"
	"repro/internal/shrinkwrap"
	"repro/internal/vm"
	"repro/internal/workload"
)

func TestAlignPutsHotEdgeFallThrough(t *testing.T) {
	// A branches: hot to C (a jump edge in the original layout), cold
	// to B. After alignment C should directly follow A.
	f := cfgtest.MustBuild("hot",
		[]string{"A", "B", "C", "D"},
		[]cfgtest.Edge{
			cfgtest.E("A", "C", 90), cfgtest.E("A", "B", 10),
			cfgtest.E("B", "D", 10), cfgtest.E("C", "D", 90),
		})
	before := JumpWeight(f)
	Align(f)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	after := JumpWeight(f)
	if after >= before {
		t.Errorf("jump weight %d -> %d, want a reduction", before, after)
	}
	ac := f.Entry.SuccEdge(f.BlockByName("C"))
	if ac.Kind != ir.FallThrough {
		t.Error("hot edge A->C should fall through after alignment")
	}
	if f.Blocks[0] != f.Entry {
		t.Error("entry must stay first")
	}
}

func TestAlignPreservesSemantics(t *testing.T) {
	// Run a real program before and after alignment: same result.
	var params workload.BenchParams
	for _, p := range workload.SPECInt2000() {
		if p.Name == "perlbmk" {
			params = p
		}
	}
	prog := workload.Generate(params)
	ref, err := vm.New(prog.Clone(), vm.Config{}).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := profile.Collect(prog, vm.Config{}, 0); err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.FuncsInOrder() {
		Align(f)
		if err := ir.Verify(f); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
	got, err := vm.New(prog, vm.Config{}).Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("aligned program computes %d, want %d", got, ref)
	}
}

func TestAlignReducesJumpWeightAggregate(t *testing.T) {
	// Over the whole suite the greedy chaining must cut the total
	// weight carried by jump edges.
	var before, after int64
	for _, p := range workload.SPECInt2000()[:4] {
		prog := workload.Generate(p)
		if _, err := profile.Collect(prog, vm.Config{}, 0); err != nil {
			t.Fatal(err)
		}
		for _, f := range prog.FuncsInOrder() {
			before += JumpWeight(f)
			Align(f)
			after += JumpWeight(f)
		}
	}
	if after >= before {
		t.Errorf("aggregate jump weight %d -> %d, want a reduction", before, after)
	}
	t.Logf("jump-edge weight reduced %d -> %d (%.1f%%)", before, after,
		100*float64(after)/float64(before))
}

// TestAlignmentNarrowsCostModelGap measures the paper's claim: with
// jump alignment performed, the jump edge cost model's results differ
// less from the execution count model's, because fewer placements sit
// on (expensive) jump edges.
func TestAlignmentNarrowsCostModelGap(t *testing.T) {
	gap := func(align bool) int64 {
		var total int64
		for _, p := range workload.SPECInt2000()[:4] {
			prog := workload.Generate(p)
			if _, err := profile.Collect(prog, vm.Config{}, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := regalloc.AllocateProgram(prog, machine.PARISC(), 1, regalloc.Options{}); err != nil {
				t.Fatal(err)
			}
			for _, f := range prog.FuncsInOrder() {
				if len(f.UsedCalleeSaved) == 0 {
					continue
				}
				if align {
					Align(f)
				}
				tr, err := pst.Build(f)
				if err != nil {
					t.Fatal(err)
				}
				seed := shrinkwrap.Compute(f, shrinkwrap.Seed)
				jm := core.JumpEdgeModel{}
				finalJ, _, err := core.Hierarchical(f, tr, seed, jm)
				if err != nil {
					t.Fatal(err)
				}
				finalE, _, err := core.Hierarchical(f, tr, seed, core.ExecCountModel{})
				if err != nil {
					t.Fatal(err)
				}
				// Evaluate both results under the jump model: the gap is
				// how much the exec-model placement overpays for jumps.
				cj := core.TotalCost(jm, finalJ)
				ce := core.TotalCost(jm, finalE)
				if ce > cj {
					total += ce - cj
				}
			}
		}
		return total
	}
	before, after := gap(false), gap(true)
	if after > before {
		t.Errorf("cost model gap grew after alignment: %d -> %d", before, after)
	}
	t.Logf("jump/exec cost model gap: %d before alignment, %d after", before, after)
}

func TestAlignTinyFunctions(t *testing.T) {
	// One- and two-block functions are left untouched.
	f := cfgtest.MustBuild("tiny", []string{"A"}, nil)
	Align(f)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	g := cfgtest.MustBuild("two", []string{"A", "B"},
		[]cfgtest.Edge{cfgtest.E("A", "B", 1)})
	Align(g)
	if err := ir.Verify(g); err != nil {
		t.Fatal(err)
	}
}
