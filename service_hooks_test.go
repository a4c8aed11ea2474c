package spillopt

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestReport: per-function reports exist for every function, carry the
// placement's inserted code, and their modeled totals agree with the
// measured run for a jump-block-free placement (entry/exit).
func TestReport(t *testing.T) {
	p, res := pipeline(t, EntryExit)
	reports, err := p.Report()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(p.Functions()) {
		t.Fatalf("got %d reports for %d functions", len(reports), len(p.Functions()))
	}
	var cost, overhead, saves int64
	var saveInstrs int
	for _, r := range reports {
		cost += r.Cost
		overhead += r.Overhead
		saves += r.Saves
		saveInstrs += r.SaveInstrs
		if r.Overhead != r.Saves+r.Restores+r.SpillLoads+r.SpillStores+r.JumpJumps {
			t.Errorf("%s: overhead breakdown inconsistent: %+v", r.Function, r)
		}
	}
	if saveInstrs == 0 {
		t.Error("no save instructions reported after placement")
	}
	// Entry/exit placement has no jump blocks, so the modeled overhead
	// is exact: it matches the measured run with the profiling args.
	if overhead != res.Overhead || cost != res.Cost {
		t.Errorf("modeled overhead/cost %d/%d != measured %d/%d", overhead, cost, res.Overhead, res.Cost)
	}

	// Report requires allocation.
	q, err := ParseProgram(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Report(); err == nil {
		t.Error("Report before Allocate should fail")
	}
}

func TestParseStrategy(t *testing.T) {
	names := Strategies()
	if len(names) != 5 {
		t.Fatalf("Strategies() = %v, want 5 entries", names)
	}
	for _, name := range names {
		s, err := ParseStrategy(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.String() != name {
			t.Errorf("ParseStrategy(%q).String() = %q", name, s.String())
		}
	}
	if _, err := ParseStrategy("nonsense"); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Errorf("ParseStrategy(nonsense) err = %v", err)
	}
}

// TestUseAnalysisCache: a program given a cache builds its analyses
// there, so the caller reads every build through the cache's Counts —
// one liveness, PST and seed-set build per placed function, each
// invalidated once by its placement.
func TestUseAnalysisCache(t *testing.T) {
	p, err := ParseProgram(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	c := analysis.NewCache()
	p.UseAnalysisCache(c)
	if err := p.Profile(100); err != nil {
		t.Fatal(err)
	}
	if err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Place(HierarchicalJump); err != nil {
		t.Fatal(err)
	}
	placed := 0
	for _, f := range p.IRFuncs() {
		if len(f.UsedCalleeSaved) > 0 {
			placed++
		}
	}
	if placed == 0 {
		t.Fatal("no function of the demo program needs placement")
	}
	n := c.Counts()
	if n.Liveness != placed || n.PST != placed || n.Seed != placed || n.DeltaFull != placed {
		t.Errorf("injected cache counts %+v, want %d builds of each and %d invalidations", n, placed, placed)
	}
	if len(p.IRFuncs()) != len(p.Functions()) {
		t.Error("IRFuncs and Functions disagree on function count")
	}
}

// TestMaxSteps: a tight step budget halts Profile with an error
// instead of letting a long-running program burn unbounded CPU.
func TestMaxSteps(t *testing.T) {
	p, err := ParseProgram(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	p.MaxSteps = 10
	if err := p.Profile(100); err == nil || !strings.Contains(err.Error(), "step") {
		t.Errorf("Profile with MaxSteps=10 err = %v, want step-limit error", err)
	}
}
