package analysis_test

// Byte-identity suite for the delta path: after core.ApplyWithDelta +
// Info.ApplyDelta, every patched analysis — liveness, dominator tree,
// loop forest, PST, and the seed sets derived from them — must be
// structurally identical to a from-scratch recompute over the edited
// function, and the re-reads must perform zero full rebuilds (pinned
// via Counts). The corpus is every testdata/*.ir program plus irgen's
// random programs, whose CFGs are far wilder than the hand-written
// examples.

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/pst"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
)

func sameBlockSlice(a, b []*ir.Block) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func compareLiveness(t *testing.T, tag string, got, want *dataflow.Liveness) {
	t.Helper()
	if got.Blocks() != want.Blocks() {
		t.Errorf("%s: patched liveness covers %d blocks, from-scratch %d", tag, got.Blocks(), want.Blocks())
		return
	}
	for i := 0; i < got.Blocks(); i++ {
		if !slices.Equal(got.In(i), want.In(i)) || !slices.Equal(got.Out(i), want.Out(i)) {
			t.Errorf("%s: patched liveness differs from from-scratch at block %d", tag, i)
			return
		}
	}
}

func compareDom(t *testing.T, tag string, got, want *cfg.DomTree) {
	t.Helper()
	if len(got.IDom) != len(want.IDom) {
		t.Errorf("%s: patched dom tree covers %d blocks, from-scratch %d", tag, len(got.IDom), len(want.IDom))
		return
	}
	for i := range got.IDom {
		if got.IDom[i] != want.IDom[i] {
			t.Errorf("%s: patched idom of block %d differs from from-scratch", tag, i)
			return
		}
		if !sameBlockSlice(got.Children[i], want.Children[i]) {
			t.Errorf("%s: patched dom children of block %d differ from from-scratch", tag, i)
			return
		}
	}
}

func compareLoops(t *testing.T, tag string, got, want *cfg.LoopForest) {
	t.Helper()
	if len(got.Loops) != len(want.Loops) {
		t.Errorf("%s: patched forest has %d loops, from-scratch %d", tag, len(got.Loops), len(want.Loops))
		return
	}
	gi := make(map[*cfg.Loop]int, len(got.Loops))
	wi := make(map[*cfg.Loop]int, len(want.Loops))
	for i := range got.Loops {
		gi[got.Loops[i]] = i
		wi[want.Loops[i]] = i
	}
	parent := func(idx map[*cfg.Loop]int, l *cfg.Loop) int {
		if l == nil {
			return -1
		}
		return idx[l]
	}
	for i := range got.Loops {
		g, w := got.Loops[i], want.Loops[i]
		if g.Header != w.Header || g.Depth != w.Depth || !sameBlockSlice(g.Blocks, w.Blocks) ||
			parent(gi, g.Parent) != parent(wi, w.Parent) {
			t.Errorf("%s: patched loop %d differs from from-scratch (%s vs %s)", tag, i, g.Header.Name, w.Header.Name)
			return
		}
	}
	for i := range got.DepthOf {
		if got.DepthOf[i] != want.DepthOf[i] ||
			parent(gi, got.InnermostOf[i]) != parent(wi, want.InnermostOf[i]) {
			t.Errorf("%s: patched per-block loop data differs from from-scratch at block %d", tag, i)
			return
		}
	}
}

func comparePST(t *testing.T, tag string, got, want *pst.PST) {
	t.Helper()
	if len(got.Regions) != len(want.Regions) {
		t.Errorf("%s: patched PST has %d regions, from-scratch %d", tag, len(got.Regions), len(want.Regions))
		return
	}
	gi := make(map[*pst.Region]int, len(got.Regions))
	wi := make(map[*pst.Region]int, len(want.Regions))
	for i := range got.Regions {
		gi[got.Regions[i]] = i
		wi[want.Regions[i]] = i
	}
	idx := func(m map[*pst.Region]int, r *pst.Region) int {
		if r == nil {
			return -1
		}
		return m[r]
	}
	for i := range got.Regions {
		g, w := got.Regions[i], want.Regions[i]
		if g.EntryEdge != w.EntryEdge || g.ExitEdge != w.ExitEdge || g.ExitBlock != w.ExitBlock ||
			g.Depth != w.Depth || !sameBlockSlice(g.Blocks, w.Blocks) ||
			idx(gi, g.Parent) != idx(wi, w.Parent) || len(g.Children) != len(w.Children) {
			t.Errorf("%s: patched PST region %d differs from from-scratch (%v vs %v)", tag, i, g, w)
			return
		}
		for c := range g.Children {
			if idx(gi, g.Children[c]) != idx(wi, w.Children[c]) {
				t.Errorf("%s: patched PST region %d child order differs from from-scratch", tag, i)
				return
			}
		}
	}
	if idx(gi, got.Root) != idx(wi, want.Root) {
		t.Errorf("%s: patched PST root differs from from-scratch", tag)
	}
}

func compareSets(t *testing.T, tag string, got, want []*core.Set) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: seed from patched liveness has %d sets, from-scratch %d", tag, len(got), len(want))
		return
	}
	sameLocs := func(a, b []core.Location) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Reg != w.Reg || g.Seed != w.Seed || !sameLocs(g.Saves, w.Saves) || !sameLocs(g.Restores, w.Restores) {
			t.Errorf("%s: seed set %d (reg %v) from patched liveness differs from from-scratch", tag, i, g.Reg)
			return
		}
	}
}

// checkIdentityAfterSets applies sets to f through the delta path and
// checks every patched analysis against a from-scratch recompute. It
// reports how many edge splits the application performed.
func checkIdentityAfterSets(t *testing.T, tag string, f *ir.Func, sets []*core.Set) int {
	t.Helper()
	info := analysis.For(f)
	info.Liveness()
	info.Dom()
	info.Loops()
	if _, err := info.PST(); err != nil {
		t.Fatalf("%s: PST: %v", tag, err)
	}
	delta, err := core.ApplyWithDelta(f, sets)
	if err != nil {
		t.Fatalf("%s: apply: %v", tag, err)
	}
	before := info.Counts()
	if !info.ApplyDelta(delta) {
		t.Fatalf("%s: ApplyDelta rejected the delta of a successful Apply", tag)
	}

	lvP, domP, loopsP := info.Liveness(), info.Dom(), info.Loops()
	treeP, errP := info.PST()
	if errP != nil {
		t.Fatalf("%s: patched PST: %v", tag, errP)
	}
	after := info.Counts()
	if after.Liveness != before.Liveness || after.Dom != before.Dom ||
		after.Loops != before.Loops || after.PST != before.PST || after.SplitDom != before.SplitDom {
		t.Errorf("%s: reading after ApplyDelta performed full rebuilds: before %+v, after %+v", tag, before, after)
	}

	lvF := dataflow.ComputeLiveness(f)
	domF := cfg.Dominators(f)
	loopsF := cfg.FindLoops(f, domF)
	treeF, errF := pst.Build(f)
	if errF != nil {
		t.Fatalf("%s: from-scratch PST: %v", tag, errF)
	}
	compareLiveness(t, tag, lvP, lvF)
	compareDom(t, tag, domP, domF)
	compareLoops(t, tag, loopsP, loopsF)
	comparePST(t, tag, treeP, treeF)
	compareSets(t, tag, info.ShrinkwrapSeed(), analysis.For(f).ShrinkwrapSeed())
	return len(delta.Splits)
}

// checkDeltaIdentity computes s's sets for f over a warmed Info, then
// runs checkIdentityAfterSets.
func checkDeltaIdentity(t *testing.T, tag string, f *ir.Func, s strategy.Strategy) int {
	t.Helper()
	if len(f.UsedCalleeSaved) == 0 {
		return 0
	}
	sets, err := strategy.ComputeCachedFor(f, s, nil, nil)
	if err != nil {
		t.Fatalf("%s: compute %v: %v", tag, s, err)
	}
	return checkIdentityAfterSets(t, tag, f, sets)
}

// TestApplyDeltaByteIdentityTestdata runs the identity check over every
// checked-in .ir program.
func TestApplyDeltaByteIdentityTestdata(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	funcs := 0
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// One fresh parse per strategy: placement mutates the program.
		for _, s := range []strategy.Strategy{strategy.HierarchicalJump, strategy.ShrinkwrapSeed} {
			prog, err := irtext.Parse(string(src))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := profile.Collect(prog, vm.Config{}, 40); err != nil {
				t.Fatalf("%s: profile: %v", path, err)
			}
			if _, err := regalloc.AllocateProgram(prog, machine.PARISC(), 1, regalloc.Options{}); err != nil {
				t.Fatalf("%s: allocate: %v", path, err)
			}
			for _, f := range prog.FuncsInOrder() {
				checkDeltaIdentity(t, fmt.Sprintf("%s/%s/%v", filepath.Base(path), f.Name, s), f, s)
				funcs++
			}
		}
	}
	if funcs == 0 {
		t.Error("no functions exercised")
	}
}

// TestApplyDeltaByteIdentityGenerated runs the identity check over 300
// generated programs (every function that uses callee-saved registers).
func TestApplyDeltaByteIdentityGenerated(t *testing.T) {
	funcs, splits := 0, 0
	for _, s := range []strategy.Strategy{strategy.HierarchicalJump, strategy.ShrinkwrapSeed} {
		for seed := uint64(0); seed < 300; seed++ {
			prog := irgen.Generate(seed, irgen.Default())
			if _, err := profile.Collect(prog, vm.Config{}, 40); err != nil {
				continue // a generated program the profiler rejects is not this test's concern
			}
			if _, err := regalloc.AllocateProgram(prog, machine.PARISC(), 1, regalloc.Options{}); err != nil {
				continue
			}
			for _, f := range prog.FuncsInOrder() {
				if len(f.UsedCalleeSaved) == 0 {
					continue
				}
				funcs++
				splits += checkDeltaIdentity(t, fmt.Sprintf("seed%d/%s/%v", seed, f.Name, s), f, s)
			}
		}
	}
	if funcs < 100 {
		t.Fatalf("only %d generated functions exercised; corpus too small", funcs)
	}
	if splits < 5 {
		t.Errorf("only %d edges split across the corpus; the delta path was barely exercised", splits)
	}
}

// TestApplyDeltaCraftedSplits forces the interesting delta shapes that
// real placements rarely produce — multiple simultaneous splits of
// critical jump edges, including a split back edge — by applying
// hand-built OnEdge sets. core.Apply only needs the locations to be
// structurally valid, which is all this identity check requires.
func TestApplyDeltaCraftedSplits(t *testing.T) {
	src := `
main main

func leaf(v0) {
entry:
	v1 = const 3
	v2 = mul v0, v1
	ret v2
}

func main(v0) {
entry:
	v1 = const 0
	v2 = const 0
	jmp loop ; 0
loop:
	v3 = call leaf(v2)
	v1 = add v1, v3
	v4 = const 1
	v2 = add v2, v4
	v5 = cmplt v2, v0
	br v5, join, side ; 0 0
side:
	v6 = add v1, v4
	br v5, join, out ; 0 0
join:
	v7 = cmplt v2, v0
	br v7, loop, out ; 0 0
out:
	ret v1
}
`
	prog, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := profile.Collect(prog, vm.Config{}, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := regalloc.AllocateProgram(prog, machine.PARISC(), 1, regalloc.Options{}); err != nil {
		t.Fatal(err)
	}
	f := prog.Func("main")
	if len(f.UsedCalleeSaved) == 0 {
		t.Fatal("main uses no callee-saved registers; crafted program too small")
	}
	edge := func(from, to string) *ir.Edge {
		for _, b := range f.Blocks {
			if b.Name != from {
				continue
			}
			for _, e := range b.Succs {
				if e.To.Name == to {
					return e
				}
			}
		}
		t.Fatalf("edge %s->%s not found", from, to)
		return nil
	}
	onEdge := func(e *ir.Edge) core.Location {
		if e.Kind != ir.Jump {
			t.Fatalf("edge %s->%s is not a jump edge; crafted layout broken", e.From.Name, e.To.Name)
		}
		return core.Location{Kind: core.OnEdge, Edge: e}
	}
	// Three critical jump edges: loop->join and side->out (forward)
	// and join->loop (the loop's back edge).
	reg := f.UsedCalleeSaved[0]
	sets := []*core.Set{{
		Reg:      reg,
		Saves:    []core.Location{onEdge(edge("loop", "join"))},
		Restores: []core.Location{onEdge(edge("side", "out")), onEdge(edge("join", "loop"))},
	}}
	if n := checkIdentityAfterSets(t, "crafted", f, sets); n != 3 {
		t.Errorf("crafted sets split %d edges, want 3", n)
	}
}

// TestDeltaPlacementMatchesUnshared: concurrent sharded placement over
// a shared cache (the delta path) produces byte-identical placed IR to
// the unshared serial pipeline. Run under -race, this also pins the
// thread-safety of cache+delta sharing.
func TestDeltaPlacementMatchesUnshared(t *testing.T) {
	mk := func(seed uint64) *ir.Program {
		prog := irgen.Generate(seed, irgen.Default())
		if _, err := profile.Collect(prog, vm.Config{}, 40); err != nil {
			return nil
		}
		if _, err := regalloc.AllocateProgram(prog, machine.PARISC(), 1, regalloc.Options{}); err != nil {
			return nil
		}
		return prog
	}
	checked := 0
	for seed := uint64(0); seed < 25; seed++ {
		a, b := mk(seed), mk(seed)
		if a == nil || b == nil {
			continue
		}
		cache := analysis.NewCache()
		if err := strategy.PlaceProgramFor(a, strategy.HierarchicalJump, nil, 4, cache); err != nil {
			t.Fatalf("seed %d: cached placement: %v", seed, err)
		}
		if err := strategy.PlaceProgramFor(b, strategy.HierarchicalJump, nil, 1, nil); err != nil {
			t.Fatalf("seed %d: unshared placement: %v", seed, err)
		}
		if irtext.Print(a) != irtext.Print(b) {
			t.Errorf("seed %d: cached+delta placement produced different IR than the unshared pipeline", seed)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no programs checked")
	}
}

// TestApplyDeltaFallback: unrecognized deltas — nil, Full, or for
// another function — must fall back to full invalidation (reported via
// Counts.DeltaFull) and never leave stale results behind.
func TestApplyDeltaFallback(t *testing.T) {
	f := demoFunc(t)
	info := analysis.For(f)
	lv := info.Liveness()
	info.Dom()
	if info.ApplyDelta(nil) {
		t.Error("nil delta must not be patched")
	}
	if info.Liveness() == lv {
		t.Error("stale liveness served after nil-delta fallback")
	}

	lv = info.Liveness()
	if info.ApplyDelta(core.FullDelta(f)) {
		t.Error("Full delta must not be patched")
	}
	if info.Liveness() == lv {
		t.Error("stale liveness served after Full-delta fallback")
	}

	g := f.Clone()
	lv = info.Liveness()
	if info.ApplyDelta(&core.Delta{Func: g}) {
		t.Error("delta for another function must not be patched")
	}
	if info.Liveness() == lv {
		t.Error("stale liveness served after wrong-function fallback")
	}

	c := info.Counts()
	if c.DeltaFull != 3 || c.DeltaPatched != 0 {
		t.Errorf("fallback counters wrong: %+v", c)
	}
}

// TestApplyDeltaUnrecognizedNoStaleServe: when an edit's delta is
// marked unrecognizable after the function already changed shape, the
// fallback must fully invalidate so the next reads match the new CFG.
func TestApplyDeltaUnrecognizedNoStaleServe(t *testing.T) {
	f := demoFunc(t)
	info := analysis.For(f)
	info.Liveness()
	if _, err := info.PST(); err != nil {
		t.Fatal(err)
	}
	seed := info.ShrinkwrapSeed()
	delta, err := core.ApplyWithDelta(f, seed)
	if err != nil {
		t.Fatal(err)
	}
	delta.Full = true // simulate an edit Apply could not describe
	if info.ApplyDelta(delta) {
		t.Fatal("Full delta accepted")
	}
	if got, want := info.Liveness().Blocks(), len(f.Blocks); got != want {
		t.Errorf("liveness covers %d blocks after fallback, function has %d", got, want)
	}
	tree, err := info.PST()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tree.Root.Blocks), len(f.Blocks); got != want {
		t.Errorf("PST root covers %d blocks after fallback, function has %d", got, want)
	}
}

// TestPSTBuilderReuseAcrossInvalidate: an invalidation that does not
// change the CFG shape (register allocation rewrites instructions, not
// edges) gets its PST back without recomputing the split-graph
// dominator trees.
func TestPSTBuilderReuseAcrossInvalidate(t *testing.T) {
	f := demoFunc(t)
	info := analysis.For(f)
	t1, err := info.PST()
	if err != nil {
		t.Fatal(err)
	}
	info.Invalidate()
	t2, err := info.PST()
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("PST rebuilt although the CFG shape is unchanged")
	}
	c := info.Counts()
	if c.PST != 2 || c.SplitDom != 1 {
		t.Errorf("want 2 PST serves from 1 split-dom build, got %+v", c)
	}
}

// TestCacheStats: the shared-cache hit/miss counters that spilltune
// reports.
func TestCacheStats(t *testing.T) {
	f := demoFunc(t)
	c := analysis.NewCache()
	c.For(f)
	c.For(f)
	c.For(f)
	if h, m := c.Stats(); h != 2 || m != 1 {
		t.Errorf("Stats() = %d hits, %d misses; want 2, 1", h, m)
	}
	var nilCache *analysis.Cache
	if h, m := nilCache.Stats(); h != 0 || m != 0 {
		t.Error("nil cache must report zero stats")
	}
}
