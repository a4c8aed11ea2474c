package bench

import (
	"encoding/json"
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

func sweepEntries() []Entry {
	var entries []Entry
	for _, p := range workload.SPECInt2000() {
		if p.Name == "gzip" || p.Name == "crafty" {
			entries = append(entries, EntryFor(p))
		}
	}
	entries = append(entries, GeneratedSuite(11, 2)...)
	return entries
}

// TestSweepSharesAnalyses: sweeping every machine preset must build
// each per-function analysis at most once — the build counters are the
// proof that machine descriptions reuse one analysis.Cache instead of
// rebuilding per preset. (ISSUE 5 acceptance criterion.)
func TestSweepSharesAnalyses(t *testing.T) {
	sw, err := RunSweep(sweepEntries(), machine.Presets(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Functions == 0 {
		t.Fatal("sweep placed no functions; entries too tame")
	}
	b := sw.Builds
	for _, c := range []struct {
		name  string
		count int
	}{
		{"liveness", b.Liveness}, {"dom", b.Dom}, {"loops", b.Loops},
		{"pst", b.PST}, {"seed", b.Seed},
	} {
		if c.count > sw.Functions {
			t.Errorf("%s built %d times for %d functions across %d machines — per-machine rebuilds",
				c.name, c.count, sw.Functions, len(sw.Machines))
		}
	}
}

// TestSweepWinners: every machine total names a winner that really has
// the lowest weighted overhead, and the baseline never beats the
// paper's configuration on any preset (the claim's graceful
// degradation across latency ratios).
func TestSweepWinners(t *testing.T) {
	sw, err := RunSweep(sweepEntries(), machine.Presets(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tot := range sw.MachineTotals() {
		for _, s := range Strategies {
			if tot.Overhead[s] < tot.Overhead[tot.Winner] {
				t.Errorf("%s: winner %s beaten by %s (%d < %d)",
					tot.Machine.Name, tot.Winner, s, tot.Overhead[s], tot.Overhead[tot.Winner])
			}
		}
		if tot.Overhead[Optimized] > tot.Overhead[Baseline] {
			t.Errorf("%s: Optimized weighted overhead %d exceeds Baseline %d",
				tot.Machine.Name, tot.Overhead[Optimized], tot.Overhead[Baseline])
		}
	}
}

// TestSweepRecordShape: the serialized record carries every machine,
// every strategy, the analysis build counters, and survives a JSON
// round trip.
func TestSweepRecordShape(t *testing.T) {
	sw, err := RunSweep(sweepEntries(), machine.Presets(), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := sw.Record("test suite")
	if len(rec.Machines) != len(machine.Presets()) {
		t.Fatalf("record has %d machines, want %d", len(rec.Machines), len(machine.Presets()))
	}
	for _, m := range rec.Machines {
		if len(m.Strategies) != len(Strategies) {
			t.Errorf("%s: %d strategies in record, want %d", m.Name, len(m.Strategies), len(Strategies))
		}
		if m.Winner == "" || m.Winner == "?" {
			t.Errorf("%s: no winner recorded", m.Name)
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var back SweepRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Functions != rec.Functions || len(back.Machines) != len(rec.Machines) {
		t.Error("record does not survive a JSON round trip")
	}
}

// TestSweepRejectsMixedRegisterFiles: machines with different register
// files cannot share one allocation; RunSweep must refuse.
func TestSweepRejectsMixedRegisterFiles(t *testing.T) {
	descs := []*machine.Desc{machine.PARISC(), machine.Small(6, 3)}
	if _, err := RunSweep(sweepEntries(), descs, Options{Parallelism: 1}); err == nil {
		t.Fatal("sweep accepted machines with different register files")
	}
}
