package shrinkwrap

import (
	"testing"

	"repro/internal/cfgtest"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/workload"
)

// singleColdWeb: A -> B(allocated) | C; B -> C. The register is busy
// only in B.
func singleColdWeb(t *testing.T) (*ir.Func, ir.Reg) {
	t.Helper()
	f := cfgtest.MustBuild("cold",
		[]string{"A", "B", "C"},
		[]cfgtest.Edge{
			cfgtest.E("A", "B", 10), cfgtest.E("A", "C", 90),
			cfgtest.E("B", "C", 10),
		})
	reg := ir.Phys(11)
	f.UsedCalleeSaved = []ir.Reg{reg}
	workload.AllocateGroup(f, reg, "B")
	return f, reg
}

func TestSeedPlacesAroundWeb(t *testing.T) {
	f, reg := singleColdWeb(t)
	sets := Compute(f, Seed)
	if len(sets) != 1 {
		t.Fatalf("sets = %d, want 1", len(sets))
	}
	s := sets[0]
	if s.Reg != reg || !s.Seed {
		t.Errorf("set misattributed: %v", s)
	}
	// B has a single in-edge and a single out-edge: head(B)/tail(B).
	if len(s.Saves) != 1 || s.Saves[0].String() != "head(B)" {
		t.Errorf("saves = %v, want head(B)", s.Saves)
	}
	if len(s.Restores) != 1 || s.Restores[0].String() != "tail(B)" {
		t.Errorf("restores = %v, want tail(B)", s.Restores)
	}
	if got := core.SetCost(core.ExecCountModel{}, s); got != 20 {
		t.Errorf("cost = %d, want 20", got)
	}
}

func TestOriginalEqualsSeedWithoutLoopsOrJumps(t *testing.T) {
	// No loops, and the web's boundaries normalize in-block, so the
	// original technique needs no artificial data flow here.
	f, _ := singleColdWeb(t)
	seed := Compute(f, Seed)
	orig := Compute(f, Original)
	if core.TotalCost(core.ExecCountModel{}, seed) != core.TotalCost(core.ExecCountModel{}, orig) {
		t.Errorf("seed %d != original %d on a clean web",
			core.TotalCost(core.ExecCountModel{}, seed),
			core.TotalCost(core.ExecCountModel{}, orig))
	}
}

func TestLoopMasking(t *testing.T) {
	// A -> H; H -> B -> H (back edge); H -> X. Allocation in B (the
	// loop body). The original technique must push the save/restore
	// outside the loop; the seed keeps them at the loop-body edges.
	f := cfgtest.MustBuild("loopalloc",
		[]string{"A", "H", "B", "X"},
		[]cfgtest.Edge{
			cfgtest.E("A", "H", 10),
			cfgtest.E("H", "B", 90), cfgtest.E("B", "H", 90),
			cfgtest.E("H", "X", 10),
		})
	reg := ir.Phys(11)
	f.UsedCalleeSaved = []ir.Reg{reg}
	workload.AllocateGroup(f, reg, "B")

	seed := Compute(f, Seed)
	seedCost := core.TotalCost(core.ExecCountModel{}, seed)
	if seedCost != 180 {
		t.Errorf("seed cost = %d, want 180 (90 in + 90 out)", seedCost)
	}

	orig := Compute(f, Original)
	origCost := core.TotalCost(core.ExecCountModel{}, orig)
	// Masking makes H and B busy; the placement moves to the loop
	// boundary: save on A->H (head of H... H has two preds, A and B;
	// B is busy so only A->H is entering, realized as tail(A) since A
	// has a single successor... A->H is A's only edge) and restore on
	// H->X.
	if origCost != 20 {
		for _, s := range orig {
			t.Logf("  %v", s)
		}
		t.Errorf("original cost = %d, want 20 (outside the loop)", origCost)
	}
	// Nothing inside the loop.
	for _, s := range orig {
		for _, l := range s.Locations() {
			switch l.Kind {
			case core.BlockHead, core.BlockTail:
				if l.Block.Name == "B" {
					t.Errorf("original placed %v inside the loop", l)
				}
			}
		}
	}
}

func TestOriginalAvoidsJumpEdges(t *testing.T) {
	fig := workload.NewFigure2()
	sets := Compute(fig.Func, Original)
	for _, s := range sets {
		for _, l := range s.Locations() {
			if l.NeedsJumpBlock() {
				t.Errorf("original shrink-wrapping placed %v on a jump edge", l)
			}
		}
	}
	// The seed, in contrast, does use the D->F jump edge.
	seed := Compute(fig.Func, Seed)
	found := false
	for _, s := range seed {
		for _, l := range s.Locations() {
			if l.NeedsJumpBlock() {
				found = true
			}
		}
	}
	if !found {
		t.Error("seed should place the D->F restore on the jump edge")
	}
}

func TestMultiExitRestores(t *testing.T) {
	// A(allocated) -> B(ret) and A -> C(ret). A single restore at the
	// tail of A covers both exit paths; that is tighter than one
	// restore per exit and must validate.
	f := cfgtest.MustBuild("multi",
		[]string{"A", "B", "C"},
		[]cfgtest.Edge{cfgtest.E("A", "B", 40), cfgtest.E("A", "C", 60)})
	reg := ir.Phys(11)
	f.UsedCalleeSaved = []ir.Reg{reg}
	workload.AllocateGroup(f, reg, "A")

	sets := Compute(f, Seed)
	if len(sets) != 1 {
		t.Fatalf("sets = %d, want 1", len(sets))
	}
	s := sets[0]
	if len(s.Saves) != 1 || s.Saves[0].String() != "head(A)" {
		t.Errorf("saves = %v", s.Saves)
	}
	if len(s.Restores) != 1 || s.Restores[0].String() != "tail(A)" {
		t.Errorf("restores = %v, want tail(A) covering both exits", s.Restores)
	}
	if err := core.ValidateSets(f, sets); err != nil {
		t.Errorf("placement invalid: %v", err)
	}

	// When the allocation extends into one exit block, that exit gets
	// its own in-block restore.
	g := cfgtest.MustBuild("multi2",
		[]string{"A", "B", "C"},
		[]cfgtest.Edge{cfgtest.E("A", "B", 40), cfgtest.E("A", "C", 60)})
	g.UsedCalleeSaved = []ir.Reg{reg}
	workload.AllocateGroup(g, reg, "A", "B")
	gsets := Compute(g, Seed)
	if err := core.ValidateSets(g, gsets); err != nil {
		t.Errorf("multi2 placement invalid: %v", err)
	}
	foundExitRestore := false
	for _, s := range gsets {
		for _, l := range s.Restores {
			if l.String() == "tail(B)" {
				foundExitRestore = true
			}
		}
	}
	if !foundExitRestore {
		t.Errorf("expected a restore at tail(B): %v", gsets)
	}
}

func TestDisjointWebsSeparateSets(t *testing.T) {
	// Two disjoint allocated regions for the same register form two
	// independent save/restore sets.
	f := cfgtest.MustBuild("twowebs",
		[]string{"A", "B", "C", "D", "E"},
		[]cfgtest.Edge{
			cfgtest.E("A", "B", 30), cfgtest.E("A", "C", 70),
			cfgtest.E("B", "C", 30),
			cfgtest.E("C", "D", 50), cfgtest.E("C", "E", 50),
			cfgtest.E("D", "E", 50),
		})
	reg := ir.Phys(11)
	f.UsedCalleeSaved = []ir.Reg{reg}
	workload.AllocateGroup(f, reg, "B")
	workload.AllocateGroup(f, reg, "D")

	sets := Compute(f, Seed)
	if len(sets) != 2 {
		t.Fatalf("sets = %d, want 2 (disjoint webs)", len(sets))
	}
	if err := core.ValidateSets(f, sets); err != nil {
		t.Errorf("placement invalid: %v", err)
	}
}

func TestNoUsageNoSets(t *testing.T) {
	f := cfgtest.MustBuild("clean",
		[]string{"A", "B"},
		[]cfgtest.Edge{cfgtest.E("A", "B", 1)})
	f.UsedCalleeSaved = []ir.Reg{ir.Phys(11)}
	sets := Compute(f, Seed)
	if len(sets) != 0 {
		t.Errorf("sets = %v, want none for an unused register", sets)
	}
}

func TestModeString(t *testing.T) {
	if Seed.String() != "shrinkwrap-seed" || Original.String() != "shrinkwrap-original" {
		t.Error("mode names wrong")
	}
}

// TestBusyBlocksAllocs pins BusyBlocks to one allocation, the result
// mask: it reads operands in place, with no buffer per instruction.
func TestBusyBlocksAllocs(t *testing.T) {
	bu := ir.NewBuilder("straight", 1)
	bu.Block("entry")
	x := bu.F.Params[0]
	for i := 0; i < 32; i++ {
		x = bu.Bin(ir.OpAdd, x, x)
	}
	bu.Ret(x)
	f := bu.Finish()
	lv := dataflow.ComputeLiveness(f)
	reg := ir.Phys(11)
	if allocs := testing.AllocsPerRun(20, func() { BusyBlocks(f, reg, lv) }); allocs > 1 {
		t.Errorf("BusyBlocks allocates %.0f times per call, want at most 1", allocs)
	}
}
