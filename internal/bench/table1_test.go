package bench

import (
	"math"
	"testing"

	"repro/internal/workload"
)

// paperTable1 is the paper's Table 1: optimized/baseline and
// shrinkwrap/baseline percentages per benchmark.
var paperTable1 = map[string][2]float64{
	"gzip": {83.0, 102.6}, "vpr": {99.5, 100.0}, "gcc": {59.6, 93.9},
	"mcf": {100.0, 100.0}, "crafty": {44.0, 93.3}, "parser": {85.8, 99.0},
	"perlbmk": {89.7, 99.6}, "gap": {88.5, 95.4}, "vortex": {98.8, 100.0},
	"bzip2": {90.2, 100.5}, "twolf": {93.9, 108.0},
}

// TestTable1Shape checks that the reproduction matches the paper's
// Table 1 within tolerance: each benchmark's ratios within 8 points,
// the suite averages within 3 points, and the qualitative facts the
// paper calls out.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	results := paperSweep(t, specEntries(workload.SPECInt2000()), Options{Parallelism: 1}).Results
	byName := map[string]*SweepBench{}
	var sumOpt, sumSw, paperOpt, paperSw float64
	for _, r := range results {
		byName[r.Name] = r
		sumOpt += r.Ratio(0, Optimized)
		sumSw += r.Ratio(0, Shrinkwrap)
		paperOpt += paperTable1[r.Name][0]
		paperSw += paperTable1[r.Name][1]
	}

	const perBench = 8.0
	for name, want := range paperTable1 {
		r := byName[name]
		if r == nil {
			t.Fatalf("missing benchmark %s", name)
		}
		if d := math.Abs(r.Ratio(0, Optimized) - want[0]); d > perBench {
			t.Errorf("%s optimized ratio %.1f%%, paper %.1f%% (off by %.1f)",
				name, r.Ratio(0, Optimized), want[0], d)
		}
		if d := math.Abs(r.Ratio(0, Shrinkwrap) - want[1]); d > perBench {
			t.Errorf("%s shrinkwrap ratio %.1f%%, paper %.1f%% (off by %.1f)",
				name, r.Ratio(0, Shrinkwrap), want[1], d)
		}
	}

	n := float64(len(results))
	if d := math.Abs(sumOpt/n - paperOpt/n); d > 3 {
		t.Errorf("optimized average %.1f%%, paper %.1f%%", sumOpt/n, paperOpt/n)
	}
	if d := math.Abs(sumSw/n - paperSw/n); d > 3 {
		t.Errorf("shrinkwrap average %.1f%%, paper %.1f%%", sumSw/n, paperSw/n)
	}

	// Qualitative facts from the paper's discussion:
	// the biggest hierarchical wins are gcc and crafty;
	if byName["crafty"].Ratio(0, Optimized) > 60 || byName["gcc"].Ratio(0, Optimized) > 70 {
		t.Error("gcc and crafty should show the deepest optimized wins")
	}
	// mcf has almost no callee-saved spill overhead;
	if mcf := byName["mcf"].Cells[0][Baseline].WeightedOverhead; mcf > 100 {
		t.Errorf("mcf overhead should be tiny, got %d", mcf)
	}
	// shrink-wrapping loses to entry/exit on twolf (its worst case);
	if byName["twolf"].Ratio(0, Shrinkwrap) <= 100 {
		t.Error("twolf shrink-wrap should exceed entry/exit placement")
	}
	// and the optimized placement never exceeds either technique.
	for _, r := range results {
		c := &r.Cells[0]
		if c[Optimized].WeightedOverhead > c[Baseline].WeightedOverhead || c[Optimized].WeightedOverhead > c[Shrinkwrap].WeightedOverhead {
			t.Errorf("%s: never-worse guarantee violated", r.Name)
		}
	}
}

// TestReportsRender exercises the table/figure formatters.
func TestReportsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	sw := paperSweep(t, specEntries(workload.SPECInt2000()[:2]), Options{Parallelism: 1})
	for _, s := range []string{Figure5(sw), Table1(sw), Table2(sw)} {
		if len(s) < 50 {
			t.Errorf("report suspiciously short:\n%s", s)
		}
	}
}

// TestDeterministicRuns checks the whole pipeline is reproducible.
func TestDeterministicRuns(t *testing.T) {
	p := workload.SPECInt2000()[3] // mcf, the smallest
	r1 := paperSweep(t, []Entry{EntryFor(p)}, Options{Parallelism: 1}).Results[0]
	r2 := paperSweep(t, []Entry{EntryFor(p)}, Options{Parallelism: 1}).Results[0]
	if overheads(r1) != overheads(r2) || r1.ReturnValue != r2.ReturnValue {
		t.Error("pipeline is not deterministic")
	}
}

// overheads returns the benchmark's per-strategy weighted overheads on
// the sweep's first machine.
func overheads(r *SweepBench) [numStrategies]int64 {
	var out [numStrategies]int64
	for _, s := range Strategies {
		out[s] = r.Cells[0][s].WeightedOverhead
	}
	return out
}
