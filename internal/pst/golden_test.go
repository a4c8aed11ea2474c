package pst_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/pst"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
)

// goldenFamilies are the generator families the golden digest covers.
var goldenFamilies = []struct {
	name string
	cfg  irgen.Config
}{
	{"default", irgen.Default()},
	{"small", irgen.Small()},
	{"hostile", irgen.Hostile()},
	{"crossover", irgen.Crossover()},
}

// pstGolden is the sha256 of every goldenFamilies function of seeds
// 1-30, raw, profiled and allocated, in both modes, plus the tree
// analysis.Info.PST returns after a hierarchical placement of each
// allocated function. The builder's trees were pinned first against
// the builder that kept region membership in maps and built its split
// graph with AddEdge. The after-placement trees were taken when
// placement still patched the tree in place, so they pin the rebuilt
// trees to the same regions, order, depths and nesting.
const pstGolden = "70c79970b62971f7c4f88207d6f81924500049d7661600c8e95ad241b7453877"

func TestPSTGolden(t *testing.T) {
	h := sha256.New()
	for _, fam := range goldenFamilies {
		for seed := uint64(1); seed <= 30; seed++ {
			fmt.Fprintf(h, "%s %d\n", fam.name, seed)
			p := irgen.Generate(seed, fam.cfg)
			hashBuilds(h, p)
			if _, err := profile.Collect(p, vm.Config{MaxSteps: 1 << 24}, 5); err != nil {
				fmt.Fprintf(h, "profile: %v\n", err)
				continue
			}
			hashBuilds(h, p)
			if _, err := regalloc.AllocateProgram(p, machine.PARISC(), 1, regalloc.Options{}); err != nil {
				fmt.Fprintf(h, "allocate: %v\n", err)
				continue
			}
			hashBuilds(h, p)
			for _, f := range strategy.NeedsPlacement(p) {
				info := analysis.For(f)
				if _, err := info.PST(); err != nil {
					fmt.Fprintf(h, "%s: pst: %v\n", f.Name, err)
					continue
				}
				if _, err := strategy.PlaceCachedFor(f, strategy.HierarchicalJump, info, nil); err != nil {
					fmt.Fprintf(h, "%s: place: %v\n", f.Name, err)
					continue
				}
				tree, err := info.PST()
				fmt.Fprintf(h, "%s placed\n", f.Name)
				hashTree(h, tree, err)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pstGolden {
		t.Fatalf("PST digest = %s, want %s", got, pstGolden)
	}
}

// hashBuilds writes the maximal and canonical trees of every function
// of p to h.
func hashBuilds(h hash.Hash, p *ir.Program) {
	for _, f := range p.FuncsInOrder() {
		for _, mode := range []pst.Mode{pst.Maximal, pst.Canonical} {
			fmt.Fprintf(h, "%s mode=%d\n", f.Name, mode)
			tree, err := pst.BuildMode(f, mode)
			hashTree(h, tree, err)
		}
	}
}

// hashTree writes every region in Regions order: its boundary, its
// block IDs, its depth, and the Regions indices of its parent and
// children.
func hashTree(h hash.Hash, tree *pst.PST, err error) {
	if err != nil {
		fmt.Fprintf(h, "error %v\n", err)
		return
	}
	idx := make(map[*pst.Region]int, len(tree.Regions))
	for i, r := range tree.Regions {
		idx[r] = i
	}
	index := func(r *pst.Region) int {
		if r == nil {
			return -1
		}
		return idx[r]
	}
	fmt.Fprintf(h, "root=%d\n", index(tree.Root))
	for _, r := range tree.Regions {
		switch {
		case r.EntryEdge != nil:
			fmt.Fprintf(h, "[%d->%d", r.EntryEdge.From.ID, r.EntryEdge.To.ID)
		default:
			io.WriteString(h, "[entry")
		}
		switch {
		case r.ExitEdge != nil:
			fmt.Fprintf(h, " .. %d->%d]", r.ExitEdge.From.ID, r.ExitEdge.To.ID)
		case r.ExitBlock != nil:
			fmt.Fprintf(h, " .. end-of-%d]", r.ExitBlock.ID)
		default:
			io.WriteString(h, " .. exit]")
		}
		for _, b := range r.Blocks {
			fmt.Fprintf(h, " %d", b.ID)
		}
		fmt.Fprintf(h, " depth=%d parent=%d children=", r.Depth, index(r.Parent))
		for _, c := range r.Children {
			fmt.Fprintf(h, "%d,", index(c))
		}
		io.WriteString(h, "\n")
	}
}
