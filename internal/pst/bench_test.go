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

// buildFamilies are BenchmarkBuild's program families: Default is
// cold-compile's and Hostile exec-run's.
var buildFamilies = []struct {
	name string
	cfg  irgen.Config
}{{"Default", irgen.Default()}, {"Hostile", irgen.Hostile()}}

// buildFuncs returns every function of 20 profiled programs of the
// family (seeds 1-20).
func buildFuncs(tb testing.TB, cfg irgen.Config) []*ir.Func {
	tb.Helper()
	var funcs []*ir.Func
	for seed := uint64(1); seed <= 20; seed++ {
		p := irgen.Generate(seed, cfg)
		if _, err := profile.Collect(p, vm.Config{}, 5); err != nil {
			tb.Fatal(err)
		}
		funcs = append(funcs, p.FuncsInOrder()...)
	}
	return funcs
}

// BenchmarkBuild builds the PST of every function of 20 profiled
// programs, as a cold service request does for each function it
// places.
func BenchmarkBuild(b *testing.B) {
	for _, fam := range buildFamilies {
		b.Run(fam.name, func(b *testing.B) {
			funcs := buildFuncs(b, fam.cfg)
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
		})
	}
}

// TestBuildAllocs holds pst.Build to at most 40 allocations per
// function over BenchmarkBuild's functions, a guard that does not
// depend on the host's speed. The builder on the edge-split graph and
// its dominator trees made 70.2 on Default and 68.3 on Hostile.
func TestBuildAllocs(t *testing.T) {
	for _, fam := range buildFamilies {
		funcs := buildFuncs(t, fam.cfg)
		allocs := testing.AllocsPerRun(5, func() {
			for _, f := range funcs {
				if _, err := pst.Build(f); err != nil {
					t.Fatal(err)
				}
			}
		})
		per := allocs / float64(len(funcs))
		t.Logf("%s: %.1f allocations per function over %d functions", fam.name, per, len(funcs))
		if per > 40 {
			t.Errorf("%s: Build made %.1f allocations per function, want at most 40", fam.name, per)
		}
	}
}
