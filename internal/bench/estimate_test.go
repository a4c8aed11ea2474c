package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/pst"
	"repro/internal/regalloc"
	"repro/internal/shrinkwrap"
	"repro/internal/strategy"
	"repro/internal/vm"
	"repro/internal/workload"
)

// TestEstimatedProfileExperiment quantifies the paper's claim that
// profile data is what enables minimum-cost placement: the pipeline is
// run with the hierarchical algorithm guided by (a) a real measured
// profile and (b) static loop-depth estimates, and both placements are
// then measured on the real execution. The estimated-profile placement
// must be valid and never beat the real-profile one; typically it
// gives up part of the win but stays at or below entry/exit cost is
// NOT guaranteed (estimates can mislead), which is exactly the paper's
// point — so only validity and the real-profile advantage are
// asserted, and the gap is logged.
func TestEstimatedProfileExperiment(t *testing.T) {
	var totReal, totEst, totBase int64
	for _, name := range []string{"gcc", "crafty", "gzip"} {
		var p workload.BenchParams
		for _, q := range workload.SPECInt2000() {
			if q.Name == name {
				p = q
			}
		}
		prog := workload.Generate(p)
		if _, err := profile.Collect(prog, vm.Config{}, 0); err != nil {
			t.Fatal(err)
		}
		mach := machine.PARISC()
		if _, err := regalloc.AllocateProgram(prog, mach, 1, regalloc.Options{}); err != nil {
			t.Fatal(err)
		}

		measure := func(estimated bool) int64 {
			clone := prog.Clone()
			if estimated {
				// Overwrite the real profile with static estimates
				// before placement — drawn from the machine's
				// estimator parameters, like a compiler without a
				// profile would; the VM run below still measures real
				// dynamic overhead.
				profile.Estimate(clone, mach)
			}
			for _, f := range clone.FuncsInOrder() {
				if len(f.UsedCalleeSaved) == 0 {
					continue
				}
				tr, err := pst.Build(f)
				if err != nil {
					t.Fatal(err)
				}
				seed := shrinkwrap.Compute(f, shrinkwrap.Seed)
				sets, _, err := core.Hierarchical(f, tr, seed, core.JumpEdgeModel{})
				if err != nil {
					t.Fatal(err)
				}
				if err := core.ValidateSets(f, sets); err != nil {
					t.Fatalf("%s/%s estimated=%v: %v", name, f.Name, estimated, err)
				}
				if err := core.Apply(f, sets); err != nil {
					t.Fatal(err)
				}
			}
			if estimated {
				// Restore real weights so the measurement run's edge
				// bookkeeping (ExecCount of inserted blocks) reflects
				// reality... the VM counts executions directly, so no
				// restoration is needed; weights only guided placement.
				_ = clone
			}
			v := vm.New(clone, vm.Config{Machine: mach})
			if _, err := v.Run(0); err != nil {
				t.Fatal(err)
			}
			return v.Stats.Overhead()
		}

		baseline := func() int64 {
			clone := prog.Clone()
			if err := strategy.PlaceProgramFor(clone, Baseline.technique(), nil, 1, nil); err != nil {
				t.Fatal(err)
			}
			v := vm.New(clone, vm.Config{Machine: mach})
			if _, err := v.Run(0); err != nil {
				t.Fatal(err)
			}
			return v.Stats.Overhead()
		}()

		real := measure(false)
		est := measure(true)
		t.Logf("%-8s baseline=%6d  real-profile=%6d (%5.1f%%)  estimated=%6d (%5.1f%%)",
			name, baseline, real, 100*float64(real)/float64(baseline),
			est, 100*float64(est)/float64(baseline))
		if real > est {
			t.Errorf("%s: real-profile placement (%d) must not lose to estimated (%d)", name, real, est)
		}
		totReal += real
		totEst += est
		totBase += baseline
	}
	if totReal >= totBase {
		t.Errorf("real-profile hierarchical (%d) should beat baseline (%d) in aggregate", totReal, totBase)
	}
	t.Logf("aggregate: baseline %d, real %d, estimated %d", totBase, totReal, totEst)
}
