// Package pst builds the Program Structure Tree of Johnson, Pearson
// and Pingali (PLDI'94): single-entry single-exit (SESE) regions found
// through cycle equivalence of control flow edges. Unlike JPP's
// canonical (smallest) regions, this package produces the *maximal*
// SESE regions the paper's hierarchical spill code placement requires:
// one region per cycle-equivalence class, spanning from the class's
// dominating edge to its postdominating edge.
//
// A build augments the CFG with START, END and END->START (buildAug),
// finds the cycle-equivalence classes with one undirected depth-first
// search (cycleEquivalence), and then makes one directed depth-first
// traversal from START (walk), which orders every class into its
// dominance chain and gives every block its innermost region. No
// dominator tree, postdominator tree or edge-split copy of the graph is
// built; the tests hold the trees to those of the edge-split builder
// this one replaced.
package pst

import (
	"math/bits"

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

// groupClasses groups augmented edge indices by signature: each class
// lists its edges in index order, and the classes are ordered by their
// first edge. An open-addressing table keyed by signature numbers the
// classes in order of first edge; the edges are then laid out class by
// class.
func groupClasses(sigs []sig) [][]int {
	m := len(sigs)
	size := 1 << bits.Len(uint(2*m)) // a power of two above 2m
	ints := make([]int32, size+3*m+1)
	table := ints[:size]         // class+1 of each signature, 0 if empty
	first := ints[size : size+m] // each class's first edge
	class := ints[size+m : size+2*m]
	start := ints[size+2*m:] // each class's offset in idx, then its end
	mask := uint64(size - 1)
	n := int32(0)
	for i, s := range sigs {
		for j := s.a & mask; ; j = (j + 1) & mask {
			k := table[j]
			if k == 0 {
				first[n] = int32(i)
				n++
				table[j], class[i] = n, n-1
				break
			}
			if sigs[first[k-1]] == s {
				class[i] = k - 1
				break
			}
		}
	}
	for _, c := range class {
		start[c+1]++
	}
	for c := int32(1); c <= n; c++ {
		start[c] += start[c-1]
	}
	idx := make([]int, m)
	next := start[:n] // the next free slot of each class; ends at the next class's start
	for i, c := range class {
		idx[next[c]] = i
		next[c]++
	}
	classes := make([][]int, n)
	lo := int32(0)
	for c := range classes {
		classes[c] = idx[lo:next[c]:next[c]]
		lo = next[c]
	}
	return classes
}
