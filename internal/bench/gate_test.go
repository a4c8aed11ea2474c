package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

// decoded round-trips a record through JSON into the tree Gate.Compare
// walks, as cmd/benchdiff does with a fresh run.
func decoded(t *testing.T, rec any) any {
	t.Helper()
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func compare(t *testing.T, g Gate, committed, fresh any) []string {
	t.Helper()
	return g.Compare(decoded(t, committed), decoded(t, fresh))
}

// hasFinding reports whether a finding names the leaf at path and
// contains want.
func hasFinding(findings []string, path, want string) bool {
	for _, f := range findings {
		if strings.HasPrefix(f, path+": ") && strings.Contains(f, want) {
			return true
		}
	}
	return false
}

// TestGate pins the comparison rules on a small hand-written record:
// exact leaves, host-dependent leaves, one-sided ratios, bounds, and
// leaves or elements present on one side only.
func TestGate(t *testing.T) {
	const committed = `{"date": "2026-01-01", "n": 7, "name": "a", "ok": true,
		"rows": [{"ns": 100, "instrs": 12345678901234567}, {"ns": 5, "instrs": 2}],
		"speedup": 4.0, "drops": 10, "len_max": 20}`
	g := Gate{
		Host:  []string{"ns", "drops", "len_max"},
		Ratio: map[string]float64{"speedup": 25},
		Min:   map[string]float64{"drops": 1},
		Max:   map[string]float64{"len_max": 30},
	}
	for _, tc := range []struct {
		name, fresh string
		want        []string // findings, in order, by prefix
	}{
		{"identical", committed, nil},
		{"host leaves and metadata move", `{"date": "2027-02-02", "n": 7, "name": "a", "ok": true,
			"rows": [{"ns": 900, "instrs": 12345678901234567}, {"ns": 1, "instrs": 2}],
			"speedup": 4.0, "drops": 99, "len_max": 30}`, nil},
		{"ratio within its limit or above", `{"date": "2026-01-01", "n": 7, "name": "a", "ok": true,
			"rows": [{"ns": 100, "instrs": 12345678901234567}, {"ns": 5, "instrs": 2}],
			"speedup": 3.1, "drops": 10, "len_max": 20}`, nil},
		{"exact leaves move", `{"date": "2026-01-01", "n": 8, "name": "b", "ok": false,
			"rows": [{"ns": 100, "instrs": 12345678901234568}, {"ns": 5, "instrs": 2}],
			"speedup": 9.0, "drops": 10, "len_max": 20}`,
			[]string{"n: fresh 8, committed 7", "name: ", "ok: ", "rows[0].instrs: "}},
		{"ratio past its limit", `{"date": "2026-01-01", "n": 7, "name": "a", "ok": true,
			"rows": [{"ns": 100, "instrs": 12345678901234567}, {"ns": 5, "instrs": 2}],
			"speedup": 2.9, "drops": 10, "len_max": 20}`,
			[]string{"speedup: fresh 2.9 fell more than 25% below committed 4.0"}},
		{"bounds crossed", `{"date": "2026-01-01", "n": 7, "name": "a", "ok": true,
			"rows": [{"ns": 100, "instrs": 12345678901234567}, {"ns": 5, "instrs": 2}],
			"speedup": 4.0, "drops": 0, "len_max": 31}`,
			[]string{"drops: fresh 0 is below the bound 1", "len_max: fresh 31 is above the bound 30"}},
		{"leaf and element missing from the fresh run", `{"date": "2026-01-01", "name": "a", "ok": true,
			"rows": [{"ns": 100, "instrs": 12345678901234567}],
			"speedup": 4.0, "drops": 10, "len_max": 20}`,
			[]string{"n: missing from the fresh run", "rows[1]: missing from the fresh run"}},
		{"leaf and element not in the committed record", `{"date": "2026-01-01", "n": 7, "name": "a", "ok": true, "extra": 1,
			"rows": [{"ns": 100, "instrs": 12345678901234567}, {"ns": 5, "instrs": 2}, {}],
			"speedup": 4.0, "drops": 10, "len_max": 20}`,
			[]string{"extra: not in the committed record", "rows[2]: not in the committed record"}},
		{"shapes differ", `{"date": "2026-01-01", "n": [7], "name": "a", "ok": true,
			"rows": {"ns": 100},
			"speedup": "fast", "drops": 10, "len_max": 20}`,
			[]string{"n: fresh [7], committed 7", "rows: fresh run is not an array", "speedup: fresh fast fell more than 25%"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := Decode([]byte(committed))
			if err != nil {
				t.Fatal(err)
			}
			f, err := Decode([]byte(tc.fresh))
			if err != nil {
				t.Fatal(err)
			}
			got := g.Compare(c, f)
			if len(got) != len(tc.want) {
				t.Fatalf("findings %q, want %d: %q", got, len(tc.want), tc.want)
			}
			for i, w := range tc.want {
				if !strings.HasPrefix(got[i], w) {
					t.Errorf("finding %d is %q, want prefix %q", i, got[i], w)
				}
			}
		})
	}
	if _, err := Decode([]byte(`{"n": `)); err == nil {
		t.Error("Decode accepted truncated JSON")
	}
}

// sweepGate is the machines record's gate: placement times are wall
// clock, every other leaf reproduces exactly.
var sweepGate = Gate{Host: []string{"placement_ns"}}

// sweepRuns holds two independent sweeps of the test suite, run once
// per test binary and encoded, so each test decodes its own copies.
var sweepRuns = sync.OnceValues(func() ([2][]byte, error) {
	var runs [2][]byte
	for i := range runs {
		sw, err := RunSweep(sweepEntries(), machine.Presets(), Options{Parallelism: 1})
		if err != nil {
			return runs, err
		}
		if runs[i], err = json.Marshal(sw.Record("test suite")); err != nil {
			return runs, err
		}
	}
	return runs, nil
})

// freshSweepRecords returns copies of the two sweeps, to be compared
// as the committed record and the fresh run.
func freshSweepRecords(t *testing.T) (committed, fresh *SweepRecord) {
	t.Helper()
	runs, err := sweepRuns()
	if err != nil {
		t.Fatal(err)
	}
	committed, fresh = new(SweepRecord), new(SweepRecord)
	if err := json.Unmarshal(runs[0], committed); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(runs[1], fresh); err != nil {
		t.Fatal(err)
	}
	return committed, fresh
}

// TestGatePassesOnIdenticalSweep: two independent sweeps reproduce
// every gated leaf exactly — the gate does not cry wolf on a healthy
// tree.
func TestGatePassesOnIdenticalSweep(t *testing.T) {
	committed, fresh := freshSweepRecords(t)
	if findings := compare(t, sweepGate, committed, fresh); len(findings) != 0 {
		t.Fatalf("a second sweep produced findings: %v", findings)
	}
}

// scaleOverheads multiplies every weighted overhead of a sweep record.
func scaleOverheads(r *SweepRecord, factor float64) {
	for mi := range r.Machines {
		for si := range r.Machines[mi].Strategies {
			s := &r.Machines[mi].Strategies[si]
			s.WeightedOverhead = int64(float64(s.WeightedOverhead) * factor)
		}
	}
}

// TestGateCatchesInjectedSweepRegression: inflating the fresh weighted
// overheads by 20% trips the gate on every machine and strategy cell
// whose overhead the inflation changes.
func TestGateCatchesInjectedSweepRegression(t *testing.T) {
	committed, fresh := freshSweepRecords(t)
	scaleOverheads(fresh, 1.2)
	findings := compare(t, sweepGate, committed, fresh)
	for mi, m := range committed.Machines {
		for si, s := range m.Strategies {
			path := fmt.Sprintf("machines[%d].strategies[%d].weighted_overhead", mi, si)
			if !hasFinding(findings, path, "fresh") && s.WeightedOverhead > 4 {
				t.Errorf("%s: no finding for a 20%% inflation of %d", path, s.WeightedOverhead)
			}
		}
	}
}

// TestGateCatchesStaleImprovement: a fresh sweep 20% *better* than the
// committed record is also a finding — a stale record would silently
// widen the regression budget for the next change.
func TestGateCatchesStaleImprovement(t *testing.T) {
	committed, fresh := freshSweepRecords(t)
	scaleOverheads(fresh, 0.8)
	if findings := compare(t, sweepGate, committed, fresh); len(findings) == 0 {
		t.Fatal("gate passed a 20% improvement against a stale committed record")
	}
}

// TestGateCatchesSuiteMismatch: a fresh sweep over a different
// benchmark suite names the benchmark the committed record lacks.
func TestGateCatchesSuiteMismatch(t *testing.T) {
	committed, fresh := freshSweepRecords(t)
	fresh.Benchmarks = append(fresh.Benchmarks, "irgen-99")
	findings := compare(t, sweepGate, committed, fresh)
	path := fmt.Sprintf("benchmarks[%d]", len(committed.Benchmarks))
	if !hasFinding(findings, path, "not in the committed record") || len(findings) != 1 {
		t.Fatalf("want a single finding for %s, got %v", path, findings)
	}
}

// TestGateCatchesMissingMachine: a fresh sweep that silently dropped a
// preset is a finding, not a pass.
func TestGateCatchesMissingMachine(t *testing.T) {
	committed, fresh := freshSweepRecords(t)
	fresh.Machines = fresh.Machines[:len(fresh.Machines)-1]
	path := fmt.Sprintf("machines[%d]", len(fresh.Machines))
	if !hasFinding(compare(t, sweepGate, committed, fresh), path, "missing from the fresh run") {
		t.Fatalf("gate passed a sweep missing preset %s", path)
	}
}

// TestGateCatchesAnalysisRebuilds: build counters exceeding the
// function count mean per-machine rebuilds crept in; the exact build
// counters guard the sharing property itself.
func TestGateCatchesAnalysisRebuilds(t *testing.T) {
	committed, fresh := freshSweepRecords(t)
	fresh.Builds.Liveness = fresh.Functions*len(machine.Presets()) + 1
	if !hasFinding(compare(t, sweepGate, committed, fresh), "analysis_builds.Liveness", "fresh") {
		t.Fatal("gate passed a sweep with per-machine analysis rebuilds")
	}
}

// vmGate compares regcode's speedup over tree within 15% and every
// instruction count exactly.
var vmGate = Gate{
	Host:  []string{"wall_ns", "ns_per_run", "instrs_per_sec"},
	Ratio: map[string]float64{"speedup": 15},
}

// vmRecord is a record as BenchVM produces them: regcode and tree run
// the same suite, so per-run instruction counts agree across engines
// in a healthy record, and Speedup is regcode over tree.
func vmRecord(speedup float64, instrsPerRun int64) *VMBench {
	return &VMBench{
		Reps:    3,
		Speedup: speedup,
		Engines: []EngineBench{
			{Engine: "regcode", Runs: 3, Instrs: 3 * instrsPerRun},
			{Engine: "tree", Runs: 3, Instrs: 3 * instrsPerRun},
		},
		PerBenchmark: []BenchmarkEngineRow{
			{Benchmark: "gzip", Engine: "regcode", Instrs: instrsPerRun},
			{Benchmark: "gzip", Engine: "tree", Instrs: instrsPerRun},
		},
	}
}

// TestGateVMSpeedupRatio: the VM gate trips on a speedup-ratio
// regression past the threshold and stays quiet within it. Ratios are
// host-independent, so the gate works on any CI runner.
func TestGateVMSpeedupRatio(t *testing.T) {
	committed := vmRecord(5.0, 1000)
	if findings := compare(t, vmGate, committed, vmRecord(4.8, 1000)); len(findings) != 0 {
		t.Errorf("4%% ratio drop tripped a 15%% gate: %v", findings)
	}
	if findings := compare(t, vmGate, committed, vmRecord(3.5, 1000)); len(findings) == 0 {
		t.Error("30% ratio drop passed a 15% gate")
	}
	if findings := compare(t, vmGate, committed, vmRecord(5.0/1.2, 1000)); len(findings) == 0 {
		t.Error("injected 20% VM regression passed a 15% gate")
	}
}

// TestGateVMRegcodeRatio: the gated ratio is regcode over the tree
// reference. A self-comparison is clean, and a regression past the
// threshold yields exactly one finding, naming that ratio.
func TestGateVMRegcodeRatio(t *testing.T) {
	committed := vmRecord(5.0, 1000)
	if findings := compare(t, vmGate, committed, committed); len(findings) != 0 {
		t.Errorf("self-comparison produced findings: %v", findings)
	}
	findings := compare(t, vmGate, committed, vmRecord(4.0, 1000))
	if !hasFinding(findings, "speedup", "below committed 5") || len(findings) != 1 {
		t.Errorf("20%% regcode ratio drop: want one speedup finding, got %v", findings)
	}
}

// TestGateVMCrossEngineInstrs: both engines execute the same programs,
// so BenchVM's per-benchmark rows and totals agree across engines (it
// returns an error when they do not).
func TestGateVMCrossEngineInstrs(t *testing.T) {
	b, err := BenchVM(workloadSuite(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Engines) != 2 || b.Engines[0].Instrs != b.Engines[1].Instrs || b.Engines[0].Instrs == 0 {
		t.Errorf("engine totals disagree: %+v", b.Engines)
	}
	for i := 0; i+1 < len(b.PerBenchmark); i += 2 {
		if r, tr := b.PerBenchmark[i], b.PerBenchmark[i+1]; r.Benchmark != tr.Benchmark || r.Instrs != tr.Instrs {
			t.Errorf("rows disagree: %+v vs %+v", r, tr)
		}
	}
}

// TestGateVMInstrDrift: deterministic instruction counts must match
// the committed record exactly, in the suite totals and in every
// per-benchmark row; drift means a stale record or a miscounting
// engine.
func TestGateVMInstrDrift(t *testing.T) {
	committed := vmRecord(3.0, 1000)
	if findings := compare(t, vmGate, committed, vmRecord(3.0, 1001)); len(findings) == 0 {
		t.Error("instruction-count drift passed the gate")
	}
	fresh := vmRecord(3.0, 1000)
	fresh.PerBenchmark[1].Instrs++
	if !hasFinding(compare(t, vmGate, committed, fresh), "per_benchmark[1].instrs", "fresh 1001") {
		t.Error("per-benchmark instruction drift passed the gate")
	}
}

// workloadSuite trims the stand-in suite to two benchmarks so the VM
// benchmark stays fast under `go test`.
func workloadSuite(t *testing.T) []workload.BenchParams {
	t.Helper()
	var suite []workload.BenchParams
	for _, p := range workload.SPECInt2000() {
		if p.Name == "gzip" || p.Name == "mcf" {
			suite = append(suite, p)
		}
	}
	return suite
}
