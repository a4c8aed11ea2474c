package pst

// The builder this package shipped before BuildMode found chains and
// members in one traversal. It copies the augmented graph into an
// edge-split ir.Func, orders every cycle-equivalence class by the
// dominator-tree level of its edges' split nodes, and tests every
// block against every region with the split graph's dominator and
// postdominator trees. TestBuildMatchesReference and FuzzBuild hold
// BuildMode to it region for region and error for error.

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/cfgtest"
	"repro/internal/ir"
	"repro/internal/workload"
)

// ReferenceBuildMode is the edge-split, dominator-tree builder. It is
// exported to the external test package only.
func ReferenceBuildMode(f *ir.Func, mode Mode) (*PST, error) {
	if err := ir.Verify(f); err != nil {
		return nil, fmt.Errorf("pst.Build: %w", err)
	}
	if len(f.Exits()) == 0 {
		return nil, fmt.Errorf("pst.Build(%s): function has no exit block", f.Name)
	}
	a := buildAug(f)
	classes := groupClasses(cycleEquivalence(a))
	split := buildSplit(a)
	dom, pdom := cfg.Dominators(split.g), cfg.Postdominators(split.g)

	closeIdx := -1
	for i, e := range a.edges {
		if e.isClose {
			closeIdx = i
		}
	}

	words := setWords(len(f.Blocks))
	// makeSpan builds the region between two chain positions; a to
	// index of -1 means the virtual end (all procedure exits).
	makeSpan := func(fromIdx, toIdx int) *Region {
		first := a.edges[fromIdx]
		r := &Region{in: make([]uint64, words)}
		if !first.isEntry {
			r.EntryEdge = first.real
		}
		var xn *ir.Block
		if toIdx >= 0 {
			last := a.edges[toIdx]
			if last.real != nil {
				r.ExitEdge = last.real
			} else {
				r.ExitBlock = last.exitFrom
			}
			xn = split.edgeNode(toIdx)
		}
		// Membership: block x is in region (a,b) iff node(a)
		// dominates x and node(b) postdominates x in the edge-split
		// graph.
		en := split.edgeNode(fromIdx)
		for _, b := range f.Blocks {
			nb := split.blockNode(b.ID)
			if dom.Dominates(en, nb) && (xn == nil || pdom.Dominates(xn, nb)) {
				r.add(b.ID)
				r.Blocks = append(r.Blocks, b)
			}
		}
		return r
	}

	var regions []*Region
	add := func(r *Region) {
		if len(r.Blocks) > 0 {
			regions = append(regions, r)
		}
	}
	for _, class := range classes {
		// Drop the END->START edge from the chain; it orders last.
		hasClose := false
		var edges []int
		for _, i := range class {
			if i == closeIdx {
				hasClose = true
				continue
			}
			edges = append(edges, i)
		}
		if len(edges) < 2 && !(hasClose && len(edges) >= 1) {
			continue
		}
		// Order the class chain by dominance of the split nodes.
		slices.SortFunc(edges, func(x, y int) int {
			return cmp.Compare(dom.Level(split.edgeNode(x)), dom.Level(split.edgeNode(y)))
		})
		// Verify the chain is totally ordered.
		for i := 0; i+1 < len(edges); i++ {
			if !dom.Dominates(split.edgeNode(edges[i]), split.edgeNode(edges[i+1])) {
				return nil, fmt.Errorf("pst.BuildMode(%s): cycle-equivalence class not chain-ordered (signature collision?)", f.Name)
			}
		}

		switch mode {
		case Maximal:
			if hasClose {
				add(makeSpan(edges[0], -1))
			} else {
				add(makeSpan(edges[0], edges[len(edges)-1]))
			}
		case Canonical:
			for i := 0; i+1 < len(edges); i++ {
				add(makeSpan(edges[i], edges[i+1]))
			}
			if hasClose {
				// The pair ending at the virtual close edge, plus the
				// whole-procedure root all canonical regions nest in.
				add(makeSpan(edges[len(edges)-1], -1))
				if len(edges) > 1 {
					add(makeSpan(edges[0], -1))
				}
			}
		}
	}

	root, err := assemble(f, regions)
	if err != nil {
		return nil, err
	}
	return &PST{Func: f, Root: root, Regions: regions}, nil
}

// splitGraph is the edge-split directed graph the reference builder
// orders chains and decides membership on: every augmented edge e:
// u->v (except END->START) becomes u -> node(e) -> v. It is a bare
// ir.Func, so the cfg dominator code can run on it.
type splitGraph struct {
	g *ir.Func
	// nodes holds START, one node per real block in ID order, END, and
	// one node per augmented edge in index order; END->START, the last
	// augmented edge, has none.
	nodes   []ir.Block
	nblocks int
	// ret is END's terminator, so cfg.Postdominators finds END as the
	// graph's only exit.
	ret  ir.Instr
	code [1]*ir.Instr
}

// blockNode is the split-graph node of real block id.
func (s *splitGraph) blockNode(id int) *ir.Block { return &s.nodes[1+id] }

// edgeNode is the split-graph node of augmented edge i.
func (s *splitGraph) edgeNode(i int) *ir.Block { return &s.nodes[s.nblocks+2+i] }

// node is the split-graph node of augmented-graph node v.
func (s *splitGraph) node(a *augGraph, v int) *ir.Block {
	switch v {
	case a.start:
		return &s.nodes[0]
	case a.end:
		return &s.nodes[s.nblocks+1]
	}
	return s.blockNode(v)
}

func buildSplit(a *augGraph) *splitGraph {
	nEdges := len(a.edges) - 1 // every augmented edge but END->START
	s := &splitGraph{nodes: make([]ir.Block, a.n+2+nEdges), nblocks: a.n}
	s.g = &ir.Func{Blocks: make([]*ir.Block, len(s.nodes))}
	for i := range s.nodes {
		s.nodes[i].ID, s.nodes[i].Func = i, s.g
		s.g.Blocks[i] = &s.nodes[i]
	}
	s.g.Entry = &s.nodes[0]
	s.ret = ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, Src1: ir.NoReg, Src2: ir.NoReg}
	s.code[0] = &s.ret
	s.nodes[a.n+1].Instrs = s.code[:]

	edges := make([]ir.Edge, 2*nEdges)
	for i, e := range a.edges[:nEdges] {
		en := s.edgeNode(i)
		edges[2*i] = ir.Edge{From: s.node(a, e.from), To: en, Kind: ir.Jump}
		edges[2*i+1] = ir.Edge{From: en, To: s.node(a, e.to), Kind: ir.Jump}
	}
	s.g.LinkEdges(edges)
	return s
}

// DiffBuilds builds f's tree in both modes with BuildMode and with
// ReferenceBuildMode and returns a description of the first
// difference, or "" if the two agree region for region (boundaries,
// block IDs, depth, parent and children, in Regions order) and error
// for error.
func DiffBuilds(f *ir.Func) string {
	for _, mode := range []Mode{Maximal, Canonical} {
		got, want := describe(BuildMode(f, mode)), describe(ReferenceBuildMode(f, mode))
		if got != want {
			return fmt.Sprintf("%s mode=%d:\n-- BuildMode --\n%s-- reference --\n%s", f.Name, mode, got, want)
		}
	}
	return ""
}

// describe renders a tree, or the error that stopped its build, one
// region a line in Regions order.
func describe(t *PST, err error) string {
	if err != nil {
		return "error " + err.Error() + "\n"
	}
	idx := make(map[*Region]int, len(t.Regions))
	for i, r := range t.Regions {
		idx[r] = i
	}
	index := func(r *Region) int {
		if r == nil {
			return -1
		}
		return idx[r]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "root=%d\n", index(t.Root))
	for i, r := range t.Regions {
		fmt.Fprintf(&sb, "%d %v ids=", i, r)
		for _, b := range r.Blocks {
			fmt.Fprintf(&sb, "%d,", b.ID)
		}
		fmt.Fprintf(&sb, " depth=%d parent=%d children=", r.Depth, index(r.Parent))
		for _, c := range r.Children {
			fmt.Fprintf(&sb, "%d,", index(c))
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// DecodeCFG reads a small CFG from arbitrary bytes: data[0] picks the
// block count (1-16), then each block takes a kind byte (0 ret, 1 jmp,
// 2 or 3 br) and one target byte per successor; a target byte t names
// block 1+t%(n-1), so the entry never has a predecessor. Missing bytes
// read as 0. A br with two equal targets becomes a jmp, and blocks the
// entry does not reach are dropped, so every input yields a CFG that
// ir.Verify accepts; it may have no exit, or blocks that reach none.
func DecodeCFG(data []byte) *ir.Func {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	n := 1 + next()%16
	succs := make([][]int, n)
	for i := range succs {
		kind := next() % 4
		if n == 1 || kind == 0 {
			continue
		}
		succs[i] = append(succs[i], 1+next()%(n-1))
		if kind >= 2 {
			if t := 1 + next()%(n-1); t != succs[i][0] {
				succs[i] = append(succs[i], t)
			}
		}
	}
	// Keep the blocks the entry reaches, in their original order.
	keep := make([]bool, n)
	keep[0] = true
	stack := []int{0}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range succs[v] {
			if !keep[w] {
				keep[w] = true
				stack = append(stack, w)
			}
		}
	}
	var names []string
	var edges []cfgtest.Edge
	for i := range succs {
		if !keep[i] {
			continue
		}
		names = append(names, fmt.Sprintf("b%d", i))
		for _, w := range succs[i] {
			edges = append(edges, cfgtest.E(fmt.Sprintf("b%d", i), fmt.Sprintf("b%d", w), 1))
		}
	}
	return cfgtest.MustBuild(fmt.Sprintf("fuzz%x", data), names, edges)
}

// EncodeCFG is DecodeCFG's inverse for a function whose entry is its
// first block and whose blocks have at most two successors.
func EncodeCFG(f *ir.Func) []byte {
	n := len(f.Blocks)
	out := []byte{byte(n - 1)}
	for _, b := range f.Blocks {
		out = append(out, byte(len(b.Succs)))
		for _, e := range b.Succs {
			out = append(out, byte(e.To.ID-1))
		}
	}
	return out
}

// HandBuilt returns the hand-built CFGs the comparison and the fuzzer
// start from: irreducible loops, and blocks that reach no exit entered
// by one edge (which builds) or by two (which fails in both builders).
func HandBuilt() []*ir.Func {
	e := cfgtest.E
	return []*ir.Func{
		// A loop with two entries, B and C.
		cfgtest.MustBuild("irreducible",
			[]string{"A", "B", "C", "D"},
			[]cfgtest.Edge{e("A", "B", 1), e("A", "C", 1), e("B", "C", 1), e("C", "B", 1), e("B", "D", 1), e("C", "D", 1)}),
		// A two-entry loop inside a diamond arm, exited from both
		// entries, next to a natural loop.
		cfgtest.MustBuild("irreducible2",
			[]string{"A", "B", "C", "D", "E", "F", "G", "H"},
			[]cfgtest.Edge{e("A", "B", 1), e("A", "G", 1), e("B", "C", 1), e("B", "D", 1), e("C", "D", 1), e("D", "C", 1),
				e("C", "E", 1), e("D", "F", 1), e("E", "F", 1), e("G", "H", 1), e("H", "G", 1), e("H", "F", 1)}),
		// A loop left from its middle: the latch X lies past the exit
		// of region {I} (H->I .. I->Y), yet that edge dominates X and
		// I->Y postdominates it, so the region holds X.
		cfgtest.MustBuild("mid-exit-loop",
			[]string{"A", "H", "I", "Y", "X", "E"},
			[]cfgtest.Edge{e("A", "H", 1), e("H", "I", 1), e("I", "Y", 1), e("Y", "E", 1), e("Y", "X", 1), e("X", "H", 1)}),
		// The same with a branch after the exit test: Z's class is a
		// singleton, so Z lies in no region of its own, but in {I}'s.
		cfgtest.MustBuild("mid-exit-branch",
			[]string{"A", "H", "I", "Y", "Z", "X1", "X2", "E"},
			[]cfgtest.Edge{e("A", "H", 1), e("H", "I", 1), e("I", "Y", 1), e("Y", "E", 1), e("Y", "Z", 1),
				e("Z", "X1", 1), e("Z", "X2", 1), e("X1", "H", 1), e("X2", "H", 1)}),
		// An irreducible loop (entered at b1 and b2) whose region {b4}
		// also holds b7, past its exit.
		cfgtest.MustBuild("irreducible-wrap",
			[]string{"b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7"},
			[]cfgtest.Edge{e("b0", "b1", 1), e("b0", "b2", 1), e("b1", "b1", 1), e("b1", "b2", 1), e("b2", "b3", 1), e("b2", "b4", 1),
				e("b3", "b1", 1), e("b3", "b2", 1), e("b4", "b5", 1), e("b5", "b7", 1), e("b5", "b6", 1), e("b7", "b1", 1)}),
		// S spins forever and is entered once, from inside the region
		// {B}: it belongs to the root only.
		cfgtest.MustBuild("spin-one-entry",
			[]string{"A", "B", "C", "D", "S"},
			[]cfgtest.Edge{e("A", "B", 1), e("A", "C", 1), e("B", "D", 1), e("B", "S", 1), e("C", "D", 1), e("S", "S", 1)}),
		// A two-block infinite loop entered once, after the edge A->B
		// that every exit follows: in Canonical mode it belongs to the
		// region from A->B to the virtual end.
		cfgtest.MustBuild("spin-after-chain",
			[]string{"A", "B", "C", "E", "F", "S", "T"},
			[]cfgtest.Edge{e("A", "B", 1), e("B", "C", 1), e("B", "E", 1), e("E", "F", 1), e("E", "S", 1), e("S", "T", 1), e("T", "S", 1)}),
		// Two edges enter S: the class of A->S and B->S is no chain.
		cfgtest.MustBuild("spin-two-entries",
			[]string{"A", "B", "C", "S"},
			[]cfgtest.Edge{e("A", "B", 1), e("A", "S", 1), e("B", "S", 1), e("B", "C", 1), e("S", "S", 1)}),
		// Two infinite loops, each entered once: their entering edges
		// are both bridges, one class, and no chain.
		cfgtest.MustBuild("spin-twice",
			[]string{"A", "B", "C", "S", "T"},
			[]cfgtest.Edge{e("A", "B", 1), e("A", "S", 1), e("B", "C", 1), e("B", "T", 1), e("S", "S", 1), e("T", "T", 1)}),
	}
}

// TestEncodeCFG: FuzzBuild's seeds decode to the CFGs they encode,
// edge for edge by block ID.
func TestEncodeCFG(t *testing.T) {
	edges := func(f *ir.Func) string {
		var sb strings.Builder
		for _, b := range f.Blocks {
			for _, e := range b.Succs {
				fmt.Fprintf(&sb, "%d->%d ", e.From.ID, e.To.ID)
			}
		}
		return sb.String()
	}
	for _, f := range append(HandBuilt(), workload.NewFigure2().Func) {
		if got, want := edges(DecodeCFG(EncodeCFG(f))), edges(f); got != want {
			t.Errorf("%s: decoded edges %s, want %s", f.Name, got, want)
		}
	}
}

// FuzzBuild: on any CFG that ir.Verify accepts and that has an exit,
// BuildMode agrees with the reference builder in both modes.
func FuzzBuild(f *testing.F) {
	f.Add(EncodeCFG(workload.NewFigure2().Func))
	for _, g := range HandBuilt() {
		f.Add(EncodeCFG(g))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := DecodeCFG(data)
		if ir.Verify(g) != nil || !hasExit(g) {
			t.Skip()
		}
		if d := DiffBuilds(g); d != "" {
			t.Fatalf("input %x:\n%s", data, d)
		}
	})
}
