// Package pst builds the Program Structure Tree of Johnson, Pearson
// and Pingali (PLDI'94): single-entry single-exit (SESE) regions found
// through cycle equivalence of control flow edges. Unlike JPP's
// canonical (smallest) regions, this package produces the *maximal*
// SESE regions the paper's hierarchical spill code placement requires:
// one region per cycle-equivalence class, spanning from the class's
// dominating edge to its postdominating edge.
package pst

import (
	"cmp"
	"slices"

	"repro/internal/ir"
)

// augGraph is the CFG augmented with virtual START and END nodes and
// the END->START edge that makes the undirected graph 2-edge-connected
// (every edge lies on a cycle), as required for cycle equivalence.
type augGraph struct {
	f *ir.Func
	// Node numbering: 0..n-1 real blocks (by ID), n = START, n+1 = END.
	n     int
	start int
	end   int
	// edges[i] describes augmented edge i.
	edges []augEdge
	adj   [][]halfEdge // undirected adjacency: adj[node] = incident edges
}

type augEdge struct {
	from, to int
	real     *ir.Edge  // nil for augmented edges
	exitFrom *ir.Block // for exit->END edges, the exit block
	isEntry  bool      // START->entry
	isClose  bool      // END->START
}

type halfEdge struct {
	edge  int
	other int
}

func buildAug(f *ir.Func) *augGraph {
	n := len(f.Blocks)
	g := &augGraph{f: f, n: n, start: n, end: n + 1}
	m := 2 // START->entry and END->START
	for _, b := range f.Blocks {
		m += len(b.Succs)
		if b.IsExit() {
			m++
		}
	}
	g.edges = make([]augEdge, 0, m)
	g.edges = append(g.edges, augEdge{from: g.start, to: f.Entry.ID, isEntry: true})
	for _, b := range f.Blocks {
		for _, e := range b.Succs {
			g.edges = append(g.edges, augEdge{from: e.From.ID, to: e.To.ID, real: e})
		}
		if b.IsExit() {
			g.edges = append(g.edges, augEdge{from: b.ID, to: g.end, exitFrom: b})
		}
	}
	g.edges = append(g.edges, augEdge{from: g.end, to: g.start, isClose: true})

	// Carve every node's incident edges from one slice, sized by degree.
	deg := make([]int, n+2)
	for _, e := range g.edges {
		deg[e.from]++
		if e.from != e.to {
			deg[e.to]++
		}
	}
	half := make([]halfEdge, 2*len(g.edges))
	g.adj = make([][]halfEdge, n+2)
	for v, d := range deg {
		g.adj[v], half = half[:0:d], half[d:]
	}
	for i, e := range g.edges {
		g.adj[e.from] = append(g.adj[e.from], halfEdge{edge: i, other: e.to})
		if e.from != e.to {
			g.adj[e.to] = append(g.adj[e.to], halfEdge{edge: i, other: e.from})
		}
	}
	return g
}

// xorshift is a tiny deterministic PRNG so cycle-equivalence class
// signatures are reproducible run to run.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	if v == 0 {
		v = 0x9e3779b97f4a7c15
	}
	*x = xorshift(v)
	return v
}

// sig is a 128-bit signature of the set of fundamental cycles an edge
// belongs to. Two edges are cycle equivalent iff they belong to the
// same set of fundamental cycles of any spanning tree, so equal sigs
// identify equivalence classes (collision probability ~2^-128).
type sig struct{ a, b uint64 }

func (s *sig) xor(t sig) { s.a ^= t.a; s.b ^= t.b }

// cycleEquivalence returns, for every augmented edge index, a class
// signature such that two edges are cycle equivalent iff their
// signatures are equal.
//
// Method: build an undirected DFS spanning tree. Each non-tree edge
// (backedge) defines a fundamental cycle consisting of itself plus the
// tree path between its endpoints. A tree edge's fundamental-cycle set
// is the set of backedges whose tree path crosses it, computed with
// the standard path-XOR subtree aggregation; a backedge's set is just
// itself. Self-loops form singleton classes.
func cycleEquivalence(g *augGraph) []sig {
	nNodes := g.n + 2
	nEdges := len(g.edges)

	ints := make([]int, 2*nNodes)
	parent, parentEdge := ints[:nNodes], ints[nNodes:] // parent node and edge in the DFS tree
	order := make([]int, 0, nNodes)                    // DFS preorder of nodes
	marks := make([]bool, nNodes+nEdges)
	visited, used := marks[:nNodes], marks[nNodes:]
	rng := xorshift(0x5eed1234abcd9876)
	acc := make([]sig, nNodes)
	sigs := make([]sig, nEdges)

	// Iterative DFS from START over the undirected multigraph.
	type frame struct{ node, idx int }
	stack := make([]frame, 1, nNodes)
	stack[0] = frame{g.start, 0}
	visited[g.start] = true
	order = append(order, g.start)
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.idx >= len(g.adj[fr.node]) {
			stack = stack[:len(stack)-1]
			continue
		}
		he := g.adj[fr.node][fr.idx]
		fr.idx++
		if used[he.edge] {
			continue
		}
		used[he.edge] = true
		e := g.edges[he.edge]
		if e.from == e.to {
			// Self-loop: unique singleton class.
			sigs[he.edge] = sig{rng.next(), rng.next()}
			continue
		}
		w := he.other
		if !visited[w] {
			parent[w], parentEdge[w] = fr.node, he.edge
			visited[w] = true
			order = append(order, w)
			stack = append(stack, frame{w, 0})
		} else {
			// Backedge (to an ancestor or finished node; in undirected
			// DFS all non-tree edges connect to ancestors).
			h := sig{rng.next(), rng.next()}
			sigs[he.edge] = h
			acc[e.from].xor(h)
			acc[e.to].xor(h)
		}
	}

	// Subtree XOR aggregation in reverse preorder (children first): the
	// tree edge p-v carries the XOR of v's subtree.
	for i := len(order) - 1; i >= 1; i-- {
		v := order[i]
		sigs[parentEdge[v]] = acc[v]
		acc[parent[v]].xor(acc[v])
	}
	return sigs
}

// splitGraph is the edge-split directed graph used to order edges of
// one class by dominance and to decide region membership: every
// augmented edge e: u->v (except END->START) becomes u -> node(e) -> v.
// It is a bare ir.Func, so the cfg dominator code can run on it, built
// from slabs: one array of unnamed blocks, one of edges, and one of
// successor and predecessor lists.
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

// groupClasses groups augmented edge indices by signature: sorting the
// indices by (signature, index) makes each class a run in index order,
// and the classes are then ordered by their first edge.
func groupClasses(sigs []sig) [][]int {
	idx := make([]int, len(sigs))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(x, y int) int {
		if c := cmp.Compare(sigs[x].a, sigs[y].a); c != 0 {
			return c
		}
		if c := cmp.Compare(sigs[x].b, sigs[y].b); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	n := 0
	for i := range idx {
		if i == 0 || sigs[idx[i]] != sigs[idx[i-1]] {
			n++
		}
	}
	classes := make([][]int, 0, n)
	for start := 0; start < len(idx); {
		end := start + 1
		for end < len(idx) && sigs[idx[end]] == sigs[idx[start]] {
			end++
		}
		classes = append(classes, idx[start:end:end])
		start = end
	}
	slices.SortFunc(classes, func(x, y []int) int { return cmp.Compare(x[0], y[0]) })
	return classes
}
