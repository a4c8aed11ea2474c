package pst_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/pst"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
	"repro/internal/workload"
)

// spinProgram keeps v1 live across a call, so main uses a
// callee-saved register, and can branch from two places to a block
// that loops forever. Placed by a hierarchical strategy, /v1/place
// answers it with a 500: main's PST build fails, because the class of
// the two edges into spin is not a dominance chain.
const spinProgram = `func id(v0) {
entry:
	ret v0
}

func main(v0) {
entry:
	v1 = const 1
	v2 = call id(v0)
	v3 = add v2, v1
	v4 = const 100
	v5 = cmplt v0, v4
	br v5, left, right
left:
	v6 = cmpeq v3, v4
	br v6, spin, done
right:
	v7 = cmpeq v2, v4
	br v7, spin, done
done:
	ret v3
spin:
	v8 = add v3, v1
	jmp spin
}
`

// TestBuildMatchesReference: BuildMode and the edge-split builder it
// replaced agree region for region and error for error, in both
// modes, on every function the pipeline builds trees for and on
// hand-built and random CFGs.
func TestBuildMatchesReference(t *testing.T) {
	checked := 0
	check := func(what string, f *ir.Func) {
		t.Helper()
		checked++
		if d := pst.DiffBuilds(f); d != "" {
			t.Fatalf("%s:\n%s", what, d)
		}
	}
	checkProgram := func(what string, p *ir.Program) {
		t.Helper()
		for _, f := range p.FuncsInOrder() {
			check(what, f)
		}
	}

	t.Run("testdata", func(t *testing.T) {
		paths, err := filepath.Glob("../../testdata/*.ir")
		if err != nil || len(paths) == 0 {
			t.Fatalf("no testdata programs: %v", err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			p, err := irtext.Parse(string(src))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			checkProgram(path, p)
		}
	})

	t.Run("generated", func(t *testing.T) {
		for _, fam := range goldenFamilies {
			for seed := uint64(1); seed <= 100; seed++ {
				what := fmt.Sprintf("%s seed %d", fam.name, seed)
				p := irgen.Generate(seed, fam.cfg)
				checkProgram(what+" raw", p)
				if _, err := profile.Collect(p, vm.Config{MaxSteps: 1 << 24}, 5); err != nil {
					continue
				}
				checkProgram(what+" profiled", p)
				if _, err := regalloc.AllocateProgram(p, machine.PARISC(), 1, regalloc.Options{}); err != nil {
					continue
				}
				checkProgram(what+" allocated", p)
				for _, s := range strategy.All {
					placed := p.Clone()
					if err := strategy.PlaceProgramFor(placed, s, nil, 1, nil); err != nil {
						continue
					}
					checkProgram(fmt.Sprintf("%s placed by %s", what, s), placed)
				}
				// Code on the entry's out-edges and on the edges into
				// exits splits those edges.
				split := p.Clone()
				for _, f := range strategy.NeedsPlacement(split) {
					if splitEdges(f) {
						check(what+" split "+f.Name, f)
					}
				}
			}
		}
	})

	t.Run("figure2", func(t *testing.T) {
		// The only CFGs that carry !jb jump blocks.
		for _, s := range []strategy.Strategy{strategy.HierarchicalExec, strategy.ShrinkwrapSeed} {
			p := ir.NewProgram()
			p.Add(workload.NewFigure2().Func)
			check("figure2", p.FuncsInOrder()[0])
			if err := strategy.PlaceProgramFor(p, s, nil, 1, nil); err != nil {
				t.Fatal(err)
			}
			checkProgram("figure2 placed by "+s.String(), p)
		}
	})

	t.Run("hand-built", func(t *testing.T) {
		for _, f := range pst.HandBuilt() {
			check(f.Name, f)
		}
		p, err := irtext.Parse(spinProgram)
		if err != nil {
			t.Fatal(err)
		}
		main := p.Func("main")
		if _, err := pst.Build(main); err == nil {
			t.Error("spinProgram's main built a tree; the reference builder fails on it")
		}
		checkProgram("spinProgram", p)
		if _, err := regalloc.AllocateProgram(p, machine.PARISC(), 1, regalloc.Options{}); err != nil {
			t.Fatal(err)
		}
		if len(main.UsedCalleeSaved) == 0 {
			t.Error("spinProgram's main uses no callee-saved register")
		}
		checkProgram("spinProgram allocated", p)
	})

	t.Run("random", func(t *testing.T) {
		rng := uint64(0x9e3779b97f4a7c15)
		data := make([]byte, 48)
		failed := 0
		for n := 0; n < 5000; {
			for i := range data {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				data[i] = byte(rng)
			}
			f := pst.DecodeCFG(data)
			if ir.Verify(f) != nil || len(f.Exits()) == 0 {
				continue
			}
			check(fmt.Sprintf("random %x", data), f)
			if _, err := pst.Build(f); err != nil {
				failed++
			}
			n++
		}
		t.Logf("both builders failed on %d of the 5000", failed)
	})
	t.Logf("%d functions", checked)
}

// splitEdges puts a save on every edge out of f's entry and a restore
// on every edge into an exit, which splits the edges that need it, and
// reports whether any was split.
func splitEdges(f *ir.Func) bool {
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
	delta, err := core.ApplyWithDelta(f, []*core.Set{set})
	return err == nil && len(delta.Splits) > 0
}
