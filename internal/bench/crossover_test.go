package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
)

// smallCrossover runs a three-seed crossover comparison — enough to
// exercise every preset and both allocation modes without the standing
// suite's cost.
func smallCrossover(t *testing.T, parallelism int) *CrossoverRecord {
	t.Helper()
	rec, err := RunCrossover(CrossoverSuite(1, 3), machine.Presets(), Options{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// crossoverGate is the crossover record's gate: every leaf but the
// host metadata reproduces exactly, and some benchmark must flip.
var crossoverGate = Gate{Min: map[string]float64{"flips": 1}}

// TestCrossoverDeterministic: the record is a deterministic function
// of the suite — same seeds, any parallelism, same values in every
// leaf but the host metadata.
func TestCrossoverDeterministic(t *testing.T) {
	if findings := compare(t, Gate{}, smallCrossover(t, 1), smallCrossover(t, 4)); len(findings) != 0 {
		t.Fatalf("crossover record differs across parallelism: %v", findings)
	}
}

// TestCrossoverGatePassesOnIdentical: self-comparison is clean as long
// as the record still demonstrates at least one flip.
func TestCrossoverGatePassesOnIdentical(t *testing.T) {
	rec := smallCrossover(t, 0)
	if rec.Flips < 1 {
		t.Fatalf("three-seed crossover suite shows no flips; family lost its reason to exist")
	}
	if findings := compare(t, crossoverGate, rec, rec); len(findings) != 0 {
		t.Fatalf("self-comparison produced findings: %v", findings)
	}
}

// TestCrossoverGateCatchesInjected: inflating every machine-priced
// overhead by 20% trips the gate on each (benchmark, preset) row.
func TestCrossoverGateCatchesInjected(t *testing.T) {
	committed := smallCrossover(t, 0)
	fresh := smallCrossover(t, 0)
	for bi := range fresh.Benches {
		for pi := range fresh.Benches[bi].Presets {
			row := &fresh.Benches[bi].Presets[pi]
			row.MachineOverhead = row.MachineOverhead*6/5 + 1
		}
	}
	findings := compare(t, crossoverGate, committed, fresh)
	for bi, b := range committed.Benches {
		for pi := range b.Presets {
			path := fmt.Sprintf("benches[%d].presets[%d].machine_overhead", bi, pi)
			if !hasFinding(findings, path, "fresh") {
				t.Errorf("%s: a 20%% inflation passed the gate", path)
			}
		}
	}
}

// TestCrossoverGateCatchesFlipLoss: a fresh run in which no benchmark
// flips its winner anymore is a finding even if every overhead is
// within tolerance — the suite exists to demonstrate machine
// dependence.
func TestCrossoverGateCatchesFlipLoss(t *testing.T) {
	committed := smallCrossover(t, 0)
	fresh := smallCrossover(t, 0)
	fresh.Flips = 0
	if !hasFinding(compare(t, crossoverGate, committed, fresh), "flips", "below the bound 1") {
		t.Fatal("gate passed a crossover run with zero winner flips")
	}
}

// TestCrossoverGateCatchesSuiteMismatch: a fresh run over a different
// suite names the benchmark the committed record lacks.
func TestCrossoverGateCatchesSuiteMismatch(t *testing.T) {
	committed := smallCrossover(t, 0)
	fresh := smallCrossover(t, 0)
	fresh.Benchmarks = append(fresh.Benchmarks, "crossover-99")
	findings := compare(t, crossoverGate, committed, fresh)
	if !hasFinding(findings, "benchmarks[3]", "not in the committed record") || len(findings) != 1 {
		t.Fatalf("want a single finding for benchmarks[3], got %v", findings)
	}
}

// TestStandingCrossoverFlips: the standing configuration behind the
// committed BENCH_crossover.json, the first ten crossover seeds over
// every preset, must demonstrate at least one preset-dependent winner
// flip.
func TestStandingCrossoverFlips(t *testing.T) {
	if testing.Short() {
		t.Skip("standing crossover suite in -short mode")
	}
	rec, err := RunCrossover(CrossoverSuite(1, 10), machine.Presets(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Flips < 1 {
		t.Fatal("standing crossover suite shows no preset-dependent winner flip")
	}
	// Winner flips must be real disagreements between concrete presets,
	// visible in the rows themselves, not just the summary bit.
	for _, b := range rec.Benches {
		if !b.AllocFlip && !b.StrategyFlip {
			continue
		}
		distinct := map[string]bool{}
		for _, row := range b.Presets {
			distinct[row.WinnerAlloc+"/"+row.WinnerStrategy] = true
		}
		if len(distinct) < 2 {
			t.Errorf("%s: flip flagged but every preset agrees on the winner", b.Name)
		}
	}
}

// TestRunSweepRejectsMultiMachineMachineAlloc: machine-priced
// allocation is per-preset by definition, so a shared-allocation sweep
// across several presets must refuse it loudly.
func TestRunSweepRejectsMultiMachineMachineAlloc(t *testing.T) {
	_, err := RunSweep(CrossoverSuite(1, 1), machine.Presets(), Options{MachineAlloc: true})
	if err == nil || !strings.Contains(err.Error(), "single-machine") {
		t.Fatalf("multi-machine MachineAlloc sweep: err = %v, want single-machine refusal", err)
	}
}
