package spillopt

import (
	"strings"
	"testing"
)

// demoSrc has a hot path and a cold branch with a call; the value v2
// is live across the call and confined to the cold path, so the
// hierarchical placement can save/restore around the cold region only
// while entry/exit placement pays on every invocation.
const demoSrc = `
main main

func work(v0) {
entry:
	v1 = const 100
	store v1+0, v0
	v3 = const 240
	v4 = and v0, v3
	br v4, join, cold ; 0 0
cold:
	v5 = const 1
	v2 = add v0, v5
	v6 = call helper(v0)
	v7 = add v2, v6
	v8 = const 100
	store v8+0, v7
	jmp join ; 0
join:
	v9 = load v1+0
	ret v9
}

func helper(v0) {
entry:
	v1 = const 2
	v2 = mul v0, v1
	ret v2
}

func main(v0) {
entry:
	v1 = const 0
	v2 = const 0
	jmp loop ; 0
loop:
	v3 = call work(v1)
	v2 = add v2, v3
	v4 = const 1
	v1 = add v1, v4
	v5 = cmplt v1, v0
	br v5, loop, done ; 0 0
done:
	ret v2
}
`

func pipeline(t *testing.T, s Strategy) (*Program, *Result) {
	t.Helper()
	p, err := ParseProgram(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Profile(100); err != nil {
		t.Fatal(err)
	}
	if err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Place(s); err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

func TestPipelineAllStrategies(t *testing.T) {
	var ref int64
	results := map[Strategy]*Result{}
	for _, s := range []Strategy{EntryExit, Shrinkwrap, ShrinkwrapSeed, HierarchicalExec, HierarchicalJump} {
		_, res := pipeline(t, s)
		results[s] = res
		if ref == 0 {
			ref = res.Value
		} else if res.Value != ref {
			t.Errorf("%v computes %d, want %d", s, res.Value, ref)
		}
		if res.Overhead != res.Saves+res.Restores+res.SpillLoads+res.SpillStores+res.JumpBlockJumps {
			t.Errorf("%v: overhead breakdown inconsistent", s)
		}
	}
	// The hierarchical placements never exceed baseline or shrink-wrap.
	for _, s := range []Strategy{HierarchicalExec, HierarchicalJump} {
		if results[s].Overhead > results[EntryExit].Overhead {
			t.Errorf("%v overhead %d > entry/exit %d", s, results[s].Overhead, results[EntryExit].Overhead)
		}
		if results[s].Overhead > results[Shrinkwrap].Overhead {
			t.Errorf("%v overhead %d > shrinkwrap %d", s, results[s].Overhead, results[Shrinkwrap].Overhead)
		}
	}
	// The cold call pattern should give the hierarchical placement a
	// strict win over entry/exit here.
	if results[HierarchicalJump].Overhead >= results[EntryExit].Overhead {
		t.Errorf("expected a strict win: hierarchical %d vs entry/exit %d",
			results[HierarchicalJump].Overhead, results[EntryExit].Overhead)
	}
}

func TestPipelineOrderEnforced(t *testing.T) {
	p, err := ParseProgram(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Place(EntryExit); err == nil {
		t.Error("Place before Allocate should fail")
	}
	if err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Profile(10); err == nil {
		t.Error("Profile after Allocate should fail")
	}
	if err := p.Allocate(); err == nil {
		t.Error("double Allocate should fail")
	}
	if err := p.Place(EntryExit); err != nil {
		t.Fatal(err)
	}
	if err := p.Place(EntryExit); err == nil {
		t.Error("double Place should fail")
	}
}

func TestPlacementCostComparison(t *testing.T) {
	p, err := ParseProgram(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Profile(100); err != nil {
		t.Fatal(err)
	}
	if err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	ee, err := p.PlacementCost("work", EntryExit)
	if err != nil {
		t.Fatal(err)
	}
	hj, err := p.PlacementCost("work", HierarchicalJump)
	if err != nil {
		t.Fatal(err)
	}
	if hj > ee {
		t.Errorf("hierarchical cost %d > entry/exit %d", hj, ee)
	}
	if _, err := p.PlacementCost("nosuch", EntryExit); err == nil {
		t.Error("unknown function should error")
	}
}

func TestTextRendersPlacement(t *testing.T) {
	p, _ := pipeline(t, EntryExit)
	text := p.Text()
	if !strings.Contains(text, "save ") || !strings.Contains(text, "restore ") {
		t.Errorf("placed program text missing save/restore:\n%s", text)
	}
}

func TestCloneIndependence(t *testing.T) {
	p, err := ParseProgram(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Profile(100); err != nil {
		t.Fatal(err)
	}
	if err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	if err := c.Place(EntryExit); err != nil {
		t.Fatal(err)
	}
	if err := p.Place(HierarchicalJump); err != nil {
		t.Fatal(err)
	}
	if p.Text() == c.Text() {
		t.Error("clones should diverge after different placements")
	}
	// Canonical is a fact about the source, so a clone keeps it.
	q, err := ParseProgram(p.Text())
	if err != nil {
		t.Fatal(err)
	}
	if !q.Canonical() || !q.Clone().Canonical() {
		t.Errorf("a program parsed from its printed text: Canonical %v, its clone's %v; want both true", q.Canonical(), q.Clone().Canonical())
	}
}

func TestMachineInfo(t *testing.T) {
	p, err := ParseProgram(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	mi := p.Machine()
	if mi.Registers != 24 || mi.CalleeSaved != 13 {
		t.Errorf("machine = %+v, want 24/13 (paper's PA-RISC)", mi)
	}
}

// TestUseMachine: retargeting to a machine cost preset prices
// Result.Cost with the preset's latencies, keeps measured counts
// identical to the default machine (the presets share one register
// file), and enforces the pipeline order.
func TestUseMachine(t *testing.T) {
	if len(Machines()) < 4 {
		t.Fatalf("Machines() = %v, want the preset catalog", Machines())
	}
	runOn := func(mach string) *Result {
		p, err := ParseProgram(demoSrc)
		if err != nil {
			t.Fatal(err)
		}
		if mach != "" {
			if err := p.UseMachine(mach); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Profile(100); err != nil {
			t.Fatal(err)
		}
		if err := p.Allocate(); err != nil {
			t.Fatal(err)
		}
		if err := p.Place(HierarchicalJump); err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(100)
		if err != nil {
			t.Fatal(err)
		}
		if mach != "" && p.Machine().Name != mach {
			t.Errorf("Machine().Name = %q, want %q", p.Machine().Name, mach)
		}
		return res
	}
	def := runOn("")
	if def.Cost != def.Overhead {
		t.Errorf("default machine cost %d != overhead %d (unit costs)", def.Cost, def.Overhead)
	}
	deep := runOn("deep-pipeline") // st2/ld3/j12
	if deep.Value != def.Value {
		t.Errorf("deep-pipeline computes %d, want %d", deep.Value, def.Value)
	}
	want := (deep.Saves+deep.SpillStores)*2 + (deep.Restores+deep.SpillLoads)*3 + deep.JumpBlockJumps*12
	if deep.Cost != want {
		t.Errorf("deep-pipeline cost %d, want %d from class counts", deep.Cost, want)
	}

	p, err := ParseProgram(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.UseMachine("warp-drive"); err == nil {
		t.Error("unknown preset should error")
	}
	if err := p.Profile(100); err != nil {
		t.Fatal(err)
	}
	if err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := p.UseMachine("classic"); err == nil {
		t.Error("UseMachine after Allocate should error")
	}
}

func TestDotExports(t *testing.T) {
	p, _ := pipeline(t, HierarchicalJump)
	cfg, err := p.DotCFG("work")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cfg, "digraph \"work\"") {
		t.Errorf("DotCFG malformed: %s", cfg[:60])
	}
	pstDot, err := p.DotPST("work")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pstDot, "procedure (boundary") {
		t.Error("DotPST missing root region")
	}
	if _, err := p.DotCFG("nosuch"); err == nil {
		t.Error("unknown function should error")
	}
	if _, err := p.DotPST("nosuch"); err == nil {
		t.Error("unknown function should error")
	}
}
