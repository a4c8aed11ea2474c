package cfg_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/vm"
)

// domGolden is the sha256 of the dominator and postdominator trees of
// every function of the four generator families, seeds 1-30, raw,
// profiled and allocated. It was taken from the trees whose Dominates
// walked the IDom chain, so it pins the interval test to the same
// relation.
const domGolden = "2316caf516765ea2d70e491a83febdd0618b4e1d9708d5a9f449754bec43388a"

func TestDomGolden(t *testing.T) {
	families := []struct {
		name string
		cfg  irgen.Config
	}{
		{"default", irgen.Default()},
		{"small", irgen.Small()},
		{"hostile", irgen.Hostile()},
		{"crossover", irgen.Crossover()},
	}
	h := sha256.New()
	for _, fam := range families {
		for seed := uint64(1); seed <= 30; seed++ {
			fmt.Fprintf(h, "%s %d\n", fam.name, seed)
			p := irgen.Generate(seed, fam.cfg)
			hashDomTrees(h, p)
			if _, err := profile.Collect(p, vm.Config{MaxSteps: 1 << 24}, 5); err != nil {
				fmt.Fprintf(h, "profile: %v\n", err)
				continue
			}
			hashDomTrees(h, p)
			if _, err := regalloc.AllocateProgram(p, machine.PARISC(), 1, regalloc.Options{}); err != nil {
				fmt.Fprintf(h, "allocate: %v\n", err)
				continue
			}
			hashDomTrees(h, p)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != domGolden {
		t.Fatalf("dominator digest = %s, want %s", got, domGolden)
	}
}

// hashDomTrees writes both trees of every function of p to h: each
// block's immediate dominator by name and its level, then Dominates
// over every ordered block pair as a bit matrix.
func hashDomTrees(h hash.Hash, p *ir.Program) {
	for _, f := range p.FuncsInOrder() {
		for _, tree := range []*cfg.DomTree{cfg.Dominators(f), cfg.Postdominators(f)} {
			fmt.Fprintf(h, "%s\n", f.Name)
			for _, b := range f.Blocks {
				idom := "-"
				if d := tree.IDom[b.ID]; d != nil {
					idom = d.Name
				}
				fmt.Fprintf(h, "%s %s %d\n", b.Name, idom, tree.Level(b))
			}
			bits := make([]byte, (len(f.Blocks)*len(f.Blocks)+7)/8)
			k := 0
			for _, a := range f.Blocks {
				for _, b := range f.Blocks {
					if tree.Dominates(a, b) {
						bits[k/8] |= 1 << (k % 8)
					}
					k++
				}
			}
			h.Write(bits)
		}
	}
}
