package core_test

// Property tests: the paper's guarantees checked over randomly
// generated programs (via the synthetic workload generator, which
// produces realistic profiled CFGs) and over the hierarchy of valid
// placements the paper proves sufficient.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/pst"
	"repro/internal/regalloc"
	"repro/internal/shrinkwrap"
	"repro/internal/vm"
	"repro/internal/workload"
)

// randomFuncs produces allocated, profiled functions from randomized
// workload parameters.
func randomFuncs(t *testing.T, n int) []*ir.Func {
	t.Helper()
	var out []*ir.Func
	seeds := []uint64{3, 17, 101, 999, 4242, 31337, 77777, 123456789,
		0xdead, 0xbeef, 0xcafe, 0xf00d, 0xabcdef, 0x13579, 0x24680, 0x424242}
	for i := 0; len(out) < n && i < len(seeds); i++ {
		p := workload.BenchParams{
			Name: "rand", Seed: seeds[i],
			Procs: 6, Segments: 3,
			LoopProb: 0.4, NestedLoopProb: 0.3, LoopTrip: 4,
			CallProb: 0.6, ColdCallProb: 0.5, ColdCallThresh: 40, WarmThresh: 128,
			LiveAcrossProb: 0.7, LoopGuardProb: 0.3, WebBranchProb: 0.4,
			OuterLoopProb: 0.5, InLoopCallFactor: 0.3, ExtraLiveProb: 0.4,
			StraightLen: 3, DriverIters: 20,
		}
		prog := workload.Generate(p)
		if _, err := profile.Collect(prog, vm.Config{}, 0); err != nil {
			t.Fatalf("seed %d: %v", seeds[i], err)
		}
		if _, err := regalloc.AllocateProgram(prog, machine.PARISC(), 1, regalloc.Options{}); err != nil {
			t.Fatalf("seed %d: %v", seeds[i], err)
		}
		for _, f := range prog.FuncsInOrder() {
			if len(f.UsedCalleeSaved) > 0 {
				out = append(out, f)
			}
		}
	}
	if len(out) < n {
		t.Fatalf("only %d functions generated", len(out))
	}
	return out[:n]
}

// TestPropertyAllStrategiesValid: every strategy's placement passes
// structural validation on every random function.
func TestPropertyAllStrategiesValid(t *testing.T) {
	for _, f := range randomFuncs(t, 25) {
		if err := core.ValidateSets(f, core.EntryExit(f)); err != nil {
			t.Errorf("%s entry/exit: %v", f.Name, err)
		}
		if err := core.ValidateSets(f, shrinkwrap.Compute(f, shrinkwrap.Original)); err != nil {
			t.Errorf("%s shrinkwrap: %v", f.Name, err)
		}
		seed := shrinkwrap.Compute(f, shrinkwrap.Seed)
		if err := core.ValidateSets(f, seed); err != nil {
			t.Errorf("%s seed: %v", f.Name, err)
		}
		tr, err := pst.Build(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		for _, m := range []core.CostModel{core.ExecCountModel{}, core.JumpEdgeModel{}} {
			final, _, err := core.Hierarchical(f, tr, seed, m)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.ValidateSets(f, final); err != nil {
				t.Errorf("%s hierarchical(%s): %v", f.Name, m.Name(), err)
			}
		}
	}
}

// TestPropertyNeverWorse: under the model it optimizes, the
// hierarchical placement never costs more than entry/exit or either
// shrink-wrapping variant.
func TestPropertyNeverWorse(t *testing.T) {
	for _, f := range randomFuncs(t, 25) {
		tr, err := pst.Build(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		seed := shrinkwrap.Compute(f, shrinkwrap.Seed)
		for _, m := range []core.CostModel{core.ExecCountModel{}, core.JumpEdgeModel{}} {
			final, _, err := core.Hierarchical(f, tr, seed, m)
			if err != nil {
				t.Fatal(err)
			}
			opt := core.TotalCost(m, final)
			if ee := core.TotalCost(m, core.EntryExit(f)); opt > ee {
				t.Errorf("%s %s: hierarchical %d > entry/exit %d", f.Name, m.Name(), opt, ee)
			}
			if sc := core.TotalCost(m, seed); opt > sc {
				t.Errorf("%s %s: hierarchical %d > seed %d", f.Name, m.Name(), opt, sc)
			}
			sw := shrinkwrap.Compute(f, shrinkwrap.Original)
			if swc := core.TotalCost(m, sw); opt > swc {
				t.Errorf("%s %s: hierarchical %d > shrink-wrap %d", f.Name, m.Name(), opt, swc)
			}
		}
	}
}

// TestPropertyHierarchyOptimal: the paper proves region boundaries
// plus the seed locations form a sufficient location set under the
// execution count model. Exhaustively enumerate every placement in
// that space — each seed set either kept or hoisted to the boundary of
// any enclosing region — and confirm the algorithm's result is
// minimal.
func TestPropertyHierarchyOptimal(t *testing.T) {
	checked := 0
	for _, f := range randomFuncs(t, 25) {
		tr, err := pst.Build(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		seed := shrinkwrap.Compute(f, shrinkwrap.Seed)
		if len(seed) == 0 || len(seed) > 6 {
			continue // keep the cross product tractable
		}
		m := core.ExecCountModel{}
		final, _, err := core.Hierarchical(f, tr, seed, m)
		if err != nil {
			t.Fatal(err)
		}
		got := core.TotalCost(m, final)

		best := exhaustiveBest(f, tr, seed, m)
		if got > best {
			t.Errorf("%s: hierarchical cost %d, exhaustive best %d", f.Name, got, best)
		}
		checked++
	}
	if checked == 0 {
		t.Skip("no tractable functions generated")
	}
}

// exhaustiveBest enumerates per-set choices (keep, or hoist to each
// enclosing region boundary), merging sets of the same register hoisted
// to the same region, and returns the minimum total cost.
func exhaustiveBest(f *ir.Func, tr *pst.PST, seed []*core.Set, m core.CostModel) int64 {
	// Options per set: nil = keep, or a region.
	options := make([][]*pst.Region, len(seed))
	for i, s := range seed {
		opts := []*pst.Region{nil}
		for _, r := range tr.BottomUp() {
			if containsSet(r, s) {
				opts = append(opts, r)
			}
		}
		options[i] = opts
	}
	best := int64(1) << 62
	idx := make([]int, len(seed))
	for {
		// Cost of this assignment.
		var cost int64
		type key struct {
			reg ir.Reg
			r   *pst.Region
		}
		seen := map[key]bool{}
		for i, s := range seed {
			r := options[i][idx[i]]
			if r == nil {
				cost += core.SetCost(m, s)
				continue
			}
			k := key{s.Reg, r}
			if seen[k] {
				continue // merged with another set at the same boundary
			}
			seen[k] = true
			saves, restores := core.BoundaryLocs(f, r)
			bs := &core.Set{Reg: s.Reg, Saves: saves, Restores: restores}
			cost += core.SetCost(m, bs)
		}
		if cost < best {
			best = cost
		}
		// Next assignment.
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(options[i]) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			return best
		}
	}
}

func containsSet(r *pst.Region, s *core.Set) bool {
	if r.IsRoot() {
		return true
	}
	for _, l := range s.Locations() {
		switch l.Kind {
		case core.OnEdge:
			if !r.ContainsEdge(l.Edge) {
				return false
			}
		default:
			if !r.ContainsBlock(l.Block) {
				return false
			}
		}
	}
	return true
}

// TestPropertyModeledEqualsMeasured: after Apply, the modeled dynamic
// overhead (profile-weighted flagged instructions) must equal the
// placement cost structure — and stay consistent across clones.
func TestPropertyApplyPreservesCFG(t *testing.T) {
	for _, f := range randomFuncs(t, 15) {
		clone := f.Clone()
		clone.UsedCalleeSaved = f.UsedCalleeSaved
		tr, err := pst.Build(clone)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		seed := shrinkwrap.Compute(clone, shrinkwrap.Seed)
		final, _, err := core.Hierarchical(clone, tr, seed, core.JumpEdgeModel{})
		if err != nil {
			t.Fatal(err)
		}
		if err := core.Apply(clone, final); err != nil {
			t.Fatalf("%s: apply: %v", f.Name, err)
		}
		if err := ir.Verify(clone); err != nil {
			t.Errorf("%s: post-apply verify: %v", f.Name, err)
		}
		// Every save has a matching restore count per register.
		saves := map[ir.Reg]int{}
		restores := map[ir.Reg]int{}
		for _, b := range clone.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpSave {
					saves[in.Src1]++
				}
				if in.Op == ir.OpRestore {
					restores[in.Dst]++
				}
			}
		}
		for r := range saves {
			if restores[r] == 0 {
				t.Errorf("%s: register %v saved but never restored", f.Name, r)
			}
		}
	}
}
