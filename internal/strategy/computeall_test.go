package strategy

import (
	"testing"

	"repro/internal/ir"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/vm"
	"repro/internal/workload"
)

// setsKey renders sets deterministically for equality checks.
func setsKey(sets []*core.Set) string {
	out := ""
	for _, s := range sets {
		out += s.String() + "\n"
	}
	return out
}

// TestComputeAllSharesAnalyses pins the analysis layer's core
// guarantee: evaluating all five strategies through one analysis.Info
// builds liveness, dominators, loops, the PST, and the shrink-wrap
// seed at most once per function — and produces exactly the sets the
// independent path (a nil info, private analyses per call) computes.
func TestComputeAllSharesAnalyses(t *testing.T) {
	base := buildDemo(t)
	funcs := NeedsPlacement(base)
	if len(funcs) == 0 {
		t.Fatal("demo program has no function needing placement")
	}
	for _, f := range funcs {
		info := analysis.For(f)
		var shared [Count][]*core.Set
		for _, s := range All {
			sets, err := ComputeCachedFor(f, s, info, nil)
			if err != nil {
				t.Fatalf("%s/%v: %v", f.Name, s, err)
			}
			shared[s] = sets
		}
		c := info.Counts()
		if c.Liveness > 1 || c.Dom > 1 || c.Loops > 1 || c.PST > 1 || c.Seed > 1 {
			t.Errorf("%s: five strategies built an analysis more than once: %+v", f.Name, c)
		}
		for _, s := range All {
			independent, err := ComputeCachedFor(f, s, nil, nil)
			if err != nil {
				t.Fatalf("%s/%v: %v", f.Name, s, err)
			}
			if got, want := setsKey(shared[s]), setsKey(independent); got != want {
				t.Errorf("%s/%v: cached sets differ from independent sets:\ncached:\n%swant:\n%s",
					f.Name, s, got, want)
			}
		}
	}
}

// TestHierarchicalErrorPropagates: the traversal's input errors
// surface through the strategy dispatch instead of being discarded
// (the sets, _ := bug).
func TestHierarchicalErrorPropagates(t *testing.T) {
	base := buildDemo(t)
	f := NeedsPlacement(base)[0]
	info := analysis.For(f)
	tree, err := info.PST()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.Hierarchical(f, tree, info.ShrinkwrapSeed(), nil); err == nil {
		t.Error("nil cost model should error")
	}
	if _, _, err := core.Hierarchical(f, nil, info.ShrinkwrapSeed(), core.ExecCountModel{}); err == nil {
		t.Error("nil PST should error")
	}
	other := base.Func("leaf")
	otherInfo := analysis.For(other)
	otherTree, err := otherInfo.PST()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := core.Hierarchical(f, otherTree, info.ShrinkwrapSeed(), core.ExecCountModel{}); err == nil {
		t.Error("PST of a different function should error")
	}
}

// benchFuncs builds the profiled, allocated SPEC stand-in suite and
// returns every placement-needing function — the complete per-function
// workload of the evaluation's compile side.
func benchFuncs(b *testing.B) []*ir.Func {
	b.Helper()
	var funcs []*ir.Func
	for _, params := range workload.SPECInt2000() {
		prog := workload.Generate(params)
		if _, err := profile.Collect(prog, vm.Config{}, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := regalloc.AllocateProgram(prog, machine.PARISC(), 1, regalloc.Options{}); err != nil {
			b.Fatal(err)
		}
		funcs = append(funcs, NeedsPlacement(prog)...)
	}
	if len(funcs) == 0 {
		b.Fatal("SPEC stand-in suite has no functions needing placement")
	}
	return funcs
}

// BenchmarkComputeEach measures the unshared shape: five independent
// computes per function with a nil info, each rebuilding liveness,
// dominators, loops, PST, and the shrink-wrap seed from scratch.
func BenchmarkComputeEach(b *testing.B) {
	funcs := benchFuncs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range funcs {
			for _, s := range All {
				if _, err := ComputeCachedFor(f, s, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkComputeAll measures the shared-analysis path: one
// analysis.Info per function feeds all five strategies.
func BenchmarkComputeAll(b *testing.B) {
	funcs := benchFuncs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range funcs {
			info := analysis.For(f)
			for _, s := range All {
				if _, err := ComputeCachedFor(f, s, info, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
