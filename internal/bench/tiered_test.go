package bench

import (
	"testing"
)

// tieredSmall is the cut-down suite the unit tests measure: enough
// hostile programs for boundaries and a real gain, small enough to
// keep the test fast.
func tieredSmall(t *testing.T) *TieredBench {
	t.Helper()
	b, err := BenchTiered(HostileSuite(0, 4), 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchTiered: the static-vs-tiered comparison runs the hostile
// suite over every preset, tier boundaries fire, functions are
// re-placed, and on at least one preset the measured re-placement
// beats the static estimate by the gate's floor.
func TestBenchTiered(t *testing.T) {
	b := tieredSmall(t)
	if len(b.Machines) == 0 || len(b.Benchmarks) != 4 {
		t.Fatalf("unexpected record shape: %d machines, %d benchmarks", len(b.Machines), len(b.Benchmarks))
	}
	for _, m := range b.Machines {
		if m.StaticOverhead <= 0 || m.TieredOverhead <= 0 {
			t.Errorf("%s: degenerate overheads %d/%d", m.Machine, m.StaticOverhead, m.TieredOverhead)
		}
		if m.Boundaries == 0 {
			t.Errorf("%s: no tier boundaries at quantum %d", m.Machine, b.Quantum)
		}
		if m.Boundaries > 0 && m.Replaced == 0 {
			t.Errorf("%s: boundaries fired but no function was re-placed", m.Machine)
		}
	}
	if b.BestGain < TieredGainFloor {
		t.Errorf("best gain %.4f below the %.2f floor on the hostile suite", b.BestGain, TieredGainFloor)
	}
}

// TestBenchTieredDeterministic: overheads, gains, and boundary
// counters are pure dynamic counts — two runs agree exactly.
func TestBenchTieredDeterministic(t *testing.T) {
	a, b := tieredSmall(t), tieredSmall(t)
	for i := range a.Machines {
		am, bm := a.Machines[i], b.Machines[i]
		if am.StaticOverhead != bm.StaticOverhead || am.TieredOverhead != bm.TieredOverhead ||
			am.Boundaries != bm.Boundaries || am.Replaced != bm.Replaced {
			t.Errorf("%s: runs disagree: %+v vs %+v", am.Machine, am, bm)
		}
	}
}

// tieredGate is the tiered record's gate: overheads, gains and tier
// counters reproduce exactly, wall times do not, and the best gain
// and every preset's boundaries have absolute floors.
var tieredGate = Gate{
	Host: []string{"static_ns", "tiered_ns", "instrs_per_sec"},
	Min:  map[string]float64{"best_gain": TieredGainFloor, "boundaries": 1},
}

// TestCompareTiered: self-comparison is clean; an injected regression
// trips the gate; quantum drift and a boundary-free run are findings.
func TestCompareTiered(t *testing.T) {
	b := tieredSmall(t)
	if fs := compare(t, tieredGate, b, b); len(fs) != 0 {
		t.Fatalf("self-comparison found: %v", fs)
	}

	hurt := *b
	hurt.Machines = append([]TieredMachineRow(nil), b.Machines...)
	for i := range hurt.Machines {
		hurt.Machines[i].TieredOverhead = hurt.Machines[i].TieredOverhead * 5 / 4
	}
	if !hasFinding(compare(t, tieredGate, b, &hurt), "machines[0].tiered_overhead", "fresh") {
		t.Error("injected 25% tiered regression passed the gate")
	}

	skew := *b
	skew.Quantum = b.Quantum + 1
	if !hasFinding(compare(t, tieredGate, b, &skew), "quantum", "fresh 2001") {
		t.Error("quantum drift passed the gate")
	}

	idle := *b
	idle.Machines = append([]TieredMachineRow(nil), b.Machines...)
	for i := range idle.Machines {
		idle.Machines[i].Boundaries = 0
	}
	if !hasFinding(compare(t, tieredGate, b, &idle), "machines[0].boundaries", "below the bound 1") {
		t.Error("boundary-free run passed the gate")
	}
}
