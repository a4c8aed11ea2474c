package bench

import (
	"testing"

	"repro/internal/workload"
)

func TestRunAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	results, err := RunEntries(specEntries(workload.SPECInt2000()), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 11 {
		t.Fatalf("results = %d, want 11", len(results))
	}
	for _, r := range results {
		t.Logf("%-8s opt=%8d (%6.1f%%)  sw=%8d (%6.1f%%)  base=%8d  procs=%d instrs=%d spilled=%d",
			r.Name, r.Overhead[Optimized], r.Ratio(Optimized),
			r.Overhead[Shrinkwrap], r.Ratio(Shrinkwrap),
			r.Overhead[Baseline], r.Procedures, r.Instrs, r.SpilledVregs)
		// Paper's guarantee: optimized never exceeds either technique.
		if r.Overhead[Optimized] > r.Overhead[Baseline] {
			t.Errorf("%s: optimized %d > baseline %d", r.Name, r.Overhead[Optimized], r.Overhead[Baseline])
		}
		if r.Overhead[Optimized] > r.Overhead[Shrinkwrap] {
			t.Errorf("%s: optimized %d > shrinkwrap %d", r.Name, r.Overhead[Optimized], r.Overhead[Shrinkwrap])
		}
	}
}

// specEntries wraps SPEC stand-in descriptions as entries.
func specEntries(suite []workload.BenchParams) []Entry {
	out := make([]Entry, len(suite))
	for i, p := range suite {
		out[i] = EntryFor(p)
	}
	return out
}
