package bench

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

func TestRunAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in short mode")
	}
	sw := paperSweep(t, specEntries(workload.SPECInt2000()), Options{Parallelism: 1})
	if len(sw.Results) != 11 {
		t.Fatalf("results = %d, want 11", len(sw.Results))
	}
	for _, r := range sw.Results {
		c := &r.Cells[0]
		t.Logf("%-8s opt=%8d (%6.1f%%)  sw=%8d (%6.1f%%)  base=%8d  procs=%d instrs=%d spilled=%d",
			r.Name, c[Optimized].WeightedOverhead, r.Ratio(0, Optimized),
			c[Shrinkwrap].WeightedOverhead, r.Ratio(0, Shrinkwrap),
			c[Baseline].WeightedOverhead, r.Procedures, r.Instrs, r.SpilledVregs)
		// Paper's guarantee: optimized never exceeds either technique.
		if c[Optimized].WeightedOverhead > c[Baseline].WeightedOverhead {
			t.Errorf("%s: optimized %d > baseline %d", r.Name, c[Optimized].WeightedOverhead, c[Baseline].WeightedOverhead)
		}
		if c[Optimized].WeightedOverhead > c[Shrinkwrap].WeightedOverhead {
			t.Errorf("%s: optimized %d > shrinkwrap %d", r.Name, c[Optimized].WeightedOverhead, c[Shrinkwrap].WeightedOverhead)
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

// paperSweep runs the paper's evaluation: a one-machine sweep on the
// unit-cost classic preset.
func paperSweep(t testing.TB, entries []Entry, opts Options) *Sweep {
	t.Helper()
	classic, err := machine.Preset("classic")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := RunSweep(entries, []*machine.Desc{classic}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}
