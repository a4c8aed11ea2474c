package bench

// The sharded harness must be a pure wall-clock optimization: every
// measured count — per-benchmark overheads, return values, full VM
// stats, and the formatted reports built from them — must match the
// serial path bit for bit for any parallelism.

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// smallSuite returns the lighter benchmarks so the comparison runs
// quickly; determinism does not depend on program size.
func smallSuite() []workload.BenchParams {
	keep := map[string]bool{"gzip": true, "vpr": true, "mcf": true, "bzip2": true}
	var out []workload.BenchParams
	for _, p := range workload.SPECInt2000() {
		if keep[p.Name] {
			out = append(out, p)
		}
	}
	return out
}

func TestShardedRunAllMatchesSerial(t *testing.T) {
	suite := smallSuite()
	serial := paperSweep(t, specEntries(suite), Options{Parallelism: 1})
	for _, par := range []int{2, 4, 0} {
		sharded := paperSweep(t, specEntries(suite), Options{Parallelism: par})
		if len(sharded.Results) != len(serial.Results) {
			t.Fatalf("parallelism %d: %d results, want %d", par, len(sharded.Results), len(serial.Results))
		}
		for i, r := range sharded.Results {
			ref := serial.Results[i]
			if r.Name != ref.Name {
				t.Fatalf("parallelism %d: result %d is %s, want %s (ordering broken)", par, i, r.Name, ref.Name)
			}
			if overheads(r) != overheads(ref) {
				t.Errorf("parallelism %d: %s overheads %v != serial %v", par, r.Name, overheads(r), overheads(ref))
			}
			if r.ReturnValue != ref.ReturnValue {
				t.Errorf("parallelism %d: %s value %d != serial %d", par, r.Name, r.ReturnValue, ref.ReturnValue)
			}
			for _, s := range Strategies {
				if !reflect.DeepEqual(r.Cells[0][s].Stats, ref.Cells[0][s].Stats) {
					t.Errorf("parallelism %d: %s/%s stats diverge:\n%+v\nwant\n%+v", par, r.Name, s, r.Cells[0][s].Stats, ref.Cells[0][s].Stats)
				}
			}
		}
		// The user-facing reports must be byte-identical (Table2 is
		// excluded: it prints wall-clock timings).
		if got, want := Figure5(sharded), Figure5(serial); got != want {
			t.Errorf("parallelism %d: Figure5 diverges:\n%s\nwant\n%s", par, got, want)
		}
		if got, want := Table1(sharded), Table1(serial); got != want {
			t.Errorf("parallelism %d: Table1 diverges:\n%s\nwant\n%s", par, got, want)
		}
		if got, want := Totals(sharded), Totals(serial); got != want {
			t.Errorf("parallelism %d: Totals diverge:\n%s\nwant\n%s", par, got, want)
		}
	}
}

func TestSuiteStatsMergesCalls(t *testing.T) {
	suite := smallSuite()
	sw := paperSweep(t, specEntries(suite), Options{Parallelism: 0})
	results := sw.Results
	merged := SuiteStats(sw)
	for _, s := range Strategies {
		var instrs, overhead int64
		calls := map[string]int64{}
		for _, r := range results {
			instrs += r.Cells[0][s].Stats.Instrs
			overhead += r.Cells[0][s].Stats.Overhead()
			for name, n := range r.Cells[0][s].Stats.Calls {
				calls[name] += n
			}
		}
		if merged[s].Instrs != instrs {
			t.Errorf("%s: merged instrs %d, want %d", s, merged[s].Instrs, instrs)
		}
		if merged[s].Overhead() != overhead {
			t.Errorf("%s: merged overhead %d, want %d", s, merged[s].Overhead(), overhead)
		}
		if !reflect.DeepEqual(merged[s].Calls, calls) {
			t.Errorf("%s: merged calls %v, want %v", s, merged[s].Calls, calls)
		}
		// Every benchmark's main runs exactly once per strategy.
		if merged[s].Calls["main"] != int64(len(results)) {
			t.Errorf("%s: main called %d times, want %d", s, merged[s].Calls["main"], len(results))
		}
	}
}
