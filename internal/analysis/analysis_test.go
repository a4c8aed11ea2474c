package analysis_test

import (
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
)

// demoFunc returns a profiled, allocated function that uses
// callee-saved registers (so the seed sets are non-trivial).
func demoFunc(t *testing.T) *ir.Func {
	t.Helper()
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
	br v5, loop, exit ; 0 0
exit:
	ret v1
}
`
	prog, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := profile.Collect(prog, vm.Config{}, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := regalloc.AllocateProgram(prog, machine.PARISC(), 1, regalloc.Options{}); err != nil {
		t.Fatal(err)
	}
	f := prog.Func("main")
	if len(f.UsedCalleeSaved) == 0 {
		t.Fatal("main uses no callee-saved registers; demo program too small")
	}
	return f
}

// TestMemoization: repeated accessor calls return the identical result
// and build each analysis exactly once.
func TestMemoization(t *testing.T) {
	f := demoFunc(t)
	info := analysis.For(f)
	lv := info.Liveness()
	loops := info.Loops()
	tree, err := info.PST()
	if err != nil {
		t.Fatal(err)
	}
	seed := info.ShrinkwrapSeed()
	busy := info.BusyBlocks(f.UsedCalleeSaved[0])

	if info.Liveness() != lv || info.Loops() != loops {
		t.Error("accessors returned fresh objects on second call")
	}
	if tree2, _ := info.PST(); tree2 != tree {
		t.Error("PST rebuilt on second call")
	}
	if seed2 := info.ShrinkwrapSeed(); len(seed2) != len(seed) || (len(seed) > 0 && seed2[0] != seed[0]) {
		t.Error("seed rebuilt on second call")
	}
	if busy2 := info.BusyBlocks(f.UsedCalleeSaved[0]); &busy2[0] != &busy[0] {
		t.Error("busy mask rebuilt on second call")
	}

	c := info.Counts()
	if c.Liveness != 1 || c.Dom != 1 || c.Loops != 1 || c.PST != 1 || c.Seed != 1 {
		t.Errorf("analyses built more than once: %+v", c)
	}
}

// TestInvalidate: after core.Apply mutates the function, Invalidate
// makes every accessor recompute against the new shape — stale results
// sized for the old block count are never served.
func TestInvalidate(t *testing.T) {
	f := demoFunc(t)
	info := analysis.For(f)

	lv1 := info.Liveness()
	if _, err := info.PST(); err != nil {
		t.Fatal(err)
	}
	seed := info.ShrinkwrapSeed()

	if err := core.Apply(f, seed); err != nil {
		t.Fatal(err)
	}
	info.Invalidate()

	lv2 := info.Liveness()
	if lv2 == lv1 {
		t.Error("stale liveness served after Invalidate")
	}
	if got, want := lv2.Blocks(), len(f.Blocks); got != want {
		t.Errorf("fresh liveness covers %d blocks, function has %d", got, want)
	}
	tree2, err := info.PST()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tree2.Root.Blocks), len(f.Blocks); got != want {
		t.Errorf("fresh PST root covers %d blocks, function has %d", got, want)
	}
	c := info.Counts()
	if c.Liveness != 2 || c.PST != 2 {
		t.Errorf("counts should be cumulative across invalidation: %+v", c)
	}
}

// TestConcurrentAccessors: many goroutines hitting one Info must agree
// on the memoized results (run under -race).
func TestConcurrentAccessors(t *testing.T) {
	f := demoFunc(t)
	info := analysis.For(f)
	var wg sync.WaitGroup
	results := make([]*struct {
		lv   any
		tree any
	}, 16)
	for i := range results {
		results[i] = &struct {
			lv   any
			tree any
		}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i].lv = info.Liveness()
			tree, _ := info.PST()
			results[i].tree = tree
			info.ShrinkwrapSeed()
			info.Loops()
			info.BusyBlocks(f.UsedCalleeSaved[0])
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i].lv != results[0].lv || results[i].tree != results[0].tree {
			t.Fatal("goroutines observed different memoized results")
		}
	}
	c := info.Counts()
	if c.Liveness != 1 || c.PST != 1 || c.Seed != 1 {
		t.Errorf("concurrent access built analyses more than once: %+v", c)
	}
}

// TestCache: per-function identity, invalidation, and nil-cache
// degradation.
func TestCache(t *testing.T) {
	f := demoFunc(t)
	c := analysis.NewCache()
	if c.For(f) != c.For(f) {
		t.Error("cache returned distinct Infos for one function")
	}
	lv := c.For(f).Liveness()
	c.Invalidate(f)
	if c.For(f).Liveness() == lv {
		t.Error("cache served stale liveness after Invalidate")
	}

	var nilCache *analysis.Cache
	if nilCache.For(f) == nil {
		t.Error("nil cache should degrade to a fresh Info")
	}
	if nilCache.For(f) == nilCache.For(f) {
		t.Error("nil cache must not memoize")
	}
	nilCache.Invalidate(f) // must not panic
}

// splitEdges edits f with a save on every edge out of the entry and a
// restore on every edge into an exit. Each of those edges is split, so
// the function's block count grows; splitEdges fails the test if not.
func splitEdges(t *testing.T, f *ir.Func) *core.Delta {
	t.Helper()
	set := &core.Set{Reg: f.UsedCalleeSaved[0]}
	for _, e := range f.Edges() {
		l := core.Location{Kind: core.OnEdge, Edge: e}
		switch {
		case e.From == f.Entry:
			set.Saves = append(set.Saves, l)
		case e.To.IsExit():
			set.Restores = append(set.Restores, l)
		}
	}
	n := len(f.Blocks)
	delta, err := core.ApplyWithDelta(f, []*core.Set{set})
	if err != nil {
		t.Fatal(err)
	}
	if len(delta.Splits) == 0 || len(f.Blocks) == n {
		t.Fatalf("the edit split %d edges, %d blocks before and %d after", len(delta.Splits), n, len(f.Blocks))
	}
	return delta
}

// TestApplyDeltaFallback: ApplyDelta reads no delta, so every one falls
// back to full invalidation: nil, an empty delta, and one describing an
// edit of another function. None is reported as patched, no stale
// result is served afterwards, and Counts.DeltaFull counts each call.
func TestApplyDeltaFallback(t *testing.T) {
	f := demoFunc(t)
	info := analysis.For(f)
	read := func() {
		t.Helper()
		info.Liveness()
		info.Loops()
		if _, err := info.PST(); err != nil {
			t.Fatal(err)
		}
		info.ShrinkwrapSeed()
	}
	deltas := []struct {
		name  string
		delta *core.Delta
	}{
		{"nil", nil},
		{"empty", &core.Delta{}},
		{"another function's", splitEdges(t, f.Clone())},
	}
	read()
	before := info.Counts()
	for _, d := range deltas {
		lv := info.Liveness()
		if info.ApplyDelta(d.delta) {
			t.Errorf("the %s delta was reported as patched in place", d.name)
		}
		if info.Liveness() == lv {
			t.Errorf("stale liveness served after the %s delta", d.name)
		}
		read()
	}

	c := info.Counts()
	k := len(deltas)
	if c.DeltaFull != before.DeltaFull+k || c.DeltaPatched != 0 {
		t.Errorf("DeltaFull %d → %d, DeltaPatched %d; want %d more and 0", before.DeltaFull, c.DeltaFull, c.DeltaPatched, k)
	}
	if c.Liveness != before.Liveness+k || c.Dom != before.Dom+k || c.Loops != before.Loops+k || c.PST != before.PST+k {
		t.Errorf("reads after ApplyDelta did not rebuild: before %+v, after %+v", before, c)
	}
}

// TestApplyDeltaUnrecognizedNoStaleServe: after an edit that changed
// the function's shape, ApplyDelta invalidates, so the next reads of
// liveness, loops (and the dominators under them) and the PST cover
// the edited function's blocks and not the ones memoized before the
// edit.
func TestApplyDeltaUnrecognizedNoStaleServe(t *testing.T) {
	f := demoFunc(t)
	info := analysis.For(f)
	info.Liveness()
	info.Loops()
	if _, err := info.PST(); err != nil {
		t.Fatal(err)
	}
	delta := splitEdges(t, f)
	if info.ApplyDelta(delta) {
		t.Fatal("ApplyDelta reported an in-place patch")
	}
	if got, want := info.Liveness().Blocks(), len(f.Blocks); got != want {
		t.Errorf("liveness covers %d blocks after the edit, function has %d", got, want)
	}
	loops := info.Loops()
	if got, want := len(loops.DepthOf), len(f.Blocks); got != want {
		t.Errorf("loop forest covers %d blocks after the edit, function has %d", got, want)
	}
	// The edit renumbered the blocks, so a forest built before it would
	// place some split block in the loop by its old ID.
	if len(loops.Loops) != 1 {
		t.Fatalf("%d loops after the edit, want main's one", len(loops.Loops))
	}
	for _, sp := range delta.Splits {
		if b := sp.FromEdge.To; loops.Loops[0].Contains(b) {
			t.Errorf("split block %s is in the loop headed by %s", b.Name, loops.Loops[0].Header.Name)
		}
	}
	tree, err := info.PST()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tree.Root.Blocks), len(f.Blocks); got != want {
		t.Errorf("PST root covers %d blocks after the edit, function has %d", got, want)
	}
	c := info.Counts()
	if c.DeltaFull != 1 || c.DeltaPatched != 0 {
		t.Errorf("DeltaFull %d, DeltaPatched %d; want 1 and 0", c.DeltaFull, c.DeltaPatched)
	}
	if c.Dom != 2 || c.Loops != 2 {
		t.Errorf("Dom %d, Loops %d; want 2 and 2, one build each side of the edit", c.Dom, c.Loops)
	}
}

// TestCachedPlacementMatchesUnshared: concurrent sharded placement over
// a shared cache produces byte-identical placed IR to the unshared
// serial pipeline. Run under -race, this also pins the thread-safety
// of cache sharing.
func TestCachedPlacementMatchesUnshared(t *testing.T) {
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
			t.Errorf("seed %d: cached placement produced different IR than the unshared pipeline", seed)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no programs checked")
	}
}
