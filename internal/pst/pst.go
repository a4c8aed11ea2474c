package pst

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/ir"
)

// Region is a maximal SESE region: the span between the dominating and
// postdominating edges of one cycle-equivalence class.
//
// Boundary encoding:
//   - interior region: EntryEdge and ExitEdge are real CFG edges
//   - EntryEdge == nil: the region's entry is procedure entry
//   - ExitEdge == nil, ExitBlock != nil: the exit is the end of that
//     specific exit block (the augmented exit->END edge)
//   - ExitEdge == nil, ExitBlock == nil: the exit is every procedure
//     exit (root region only)
type Region struct {
	EntryEdge *ir.Edge
	ExitEdge  *ir.Edge
	ExitBlock *ir.Block

	// Blocks contains the region body in layout order, including
	// blocks of nested regions.
	Blocks []*ir.Block

	Parent   *Region
	Children []*Region
	// Depth is 0 for the root, increasing inward.
	Depth int

	in []uint64 // bitset over block IDs
}

// IsRoot reports whether the region is the whole procedure.
func (r *Region) IsRoot() bool { return r.Parent == nil }

// ContainsBlock reports whether b lies inside the region.
func (r *Region) ContainsBlock(b *ir.Block) bool { return r.has(b.ID) }

// ContainsEdge reports whether both endpoints of e lie inside the
// region (the region's own boundary edges are NOT contained).
func (r *Region) ContainsEdge(e *ir.Edge) bool {
	return r.has(e.From.ID) && r.has(e.To.ID)
}

func (r *Region) has(id int) bool {
	w := uint(id) / 64
	return w < uint(len(r.in)) && r.in[w]&(1<<(uint(id)%64)) != 0
}

func (r *Region) add(id int) { r.in[id/64] |= 1 << (id % 64) }

// setWords is the length of a membership bitset over n block IDs.
func setWords(n int) int { return (n + 63) / 64 }

// EntryWeight is the dynamic execution count of the region's entry
// boundary.
func (r *Region) EntryWeight(f *ir.Func) int64 {
	if r.EntryEdge != nil {
		return r.EntryEdge.Weight
	}
	return f.EntryCount
}

// ExitWeight is the dynamic execution count of the region's exit
// boundary (summed over all procedure exits for the root).
func (r *Region) ExitWeight(f *ir.Func) int64 {
	if r.ExitEdge != nil {
		return r.ExitEdge.Weight
	}
	if r.ExitBlock != nil {
		return r.ExitBlock.ExecCount()
	}
	var n int64
	for _, b := range f.Exits() {
		n += b.ExecCount()
	}
	return n
}

// String renders the region boundaries for diagnostics.
func (r *Region) String() string {
	entry := "proc-entry"
	if r.EntryEdge != nil {
		entry = r.EntryEdge.From.Name + "->" + r.EntryEdge.To.Name
	}
	exit := "proc-exit"
	switch {
	case r.ExitEdge != nil:
		exit = r.ExitEdge.From.Name + "->" + r.ExitEdge.To.Name
	case r.ExitBlock != nil:
		exit = "end-of-" + r.ExitBlock.Name
	}
	names := make([]string, len(r.Blocks))
	for i, b := range r.Blocks {
		names[i] = b.Name
	}
	return fmt.Sprintf("region[%s .. %s]{%s}", entry, exit, strings.Join(names, " "))
}

// PST is the Program Structure Tree of maximal SESE regions.
type PST struct {
	Func    *ir.Func
	Root    *Region
	Regions []*Region // all regions including the root
}

// Mode selects which SESE regions form the tree.
type Mode int

const (
	// Maximal regions (one per cycle-equivalence class, spanning its
	// dominating to its postdominating edge) are what the paper's
	// algorithm requires: region boundaries are exactly the points
	// where execution frequency can change.
	Maximal Mode = iota
	// Canonical regions are Johnson/Pearson/Pingali's original
	// smallest regions: one per consecutive edge pair of a class
	// chain. Provided for comparison; the hierarchical algorithm
	// produces equal-cost placements over either tree because all
	// edges of one class run at the same frequency, but the canonical
	// tree is larger. See the canonical-vs-maximal ablation tests.
	Canonical
)

// Build computes the PST of f over maximal SESE regions (what the
// paper's algorithm uses). The function must pass ir.Verify and have
// at least one exit block.
func Build(f *ir.Func) (*PST, error) { return BuildMode(f, Maximal) }

// BuildMode computes the PST with the chosen region mode.
func BuildMode(f *ir.Func, mode Mode) (*PST, error) {
	if err := ir.Verify(f); err != nil {
		return nil, fmt.Errorf("pst.Build: %w", err)
	}
	if !hasExit(f) {
		return nil, fmt.Errorf("pst.Build(%s): function has no exit block", f.Name)
	}
	a := buildAug(f)
	t := walk(a, groupClasses(cycleEquivalence(a)), mode)
	if t.broken {
		return nil, fmt.Errorf("pst.BuildMode(%s): cycle-equivalence class not chain-ordered (signature collision?)", f.Name)
	}
	regions := t.regions()
	root, err := assemble(f, regions)
	if err != nil {
		return nil, err
	}
	return &PST{Func: f, Root: root, Regions: regions}, nil
}

func hasExit(f *ir.Func) bool {
	for _, b := range f.Blocks {
		if b.IsExit() {
			return true
		}
	}
	return false
}

// span is a region as the traversal finds it: its boundary as
// augmented edge indices, where an exit of -1 is the virtual end (every
// procedure exit); up, the span that was innermost where it opened;
// its class; and, once the traversal is done, size, its number of
// blocks, and region, its index among the non-empty spans.
type span struct {
	entry, exit  int32
	up, class    int32
	size, region int32
}

// chain is one cycle-equivalence class's progress through the
// traversal. Its edges other than END->START are examined in chain
// order, so the seen-th edge examined is the seen-th of the chain.
type chain struct {
	n, seen int32
	open    int32 // span opened at the latest edge seen, until its exit edge; -1 if none
	to      int32 // the latest edge's target if the traversal entered it there, else -1
	close   bool  // the class holds END->START
	// wrap lists the blocks every region of the class holds besides
	// those on tree paths through it (see findWrap).
	wrap []int32
}

// traversal is what walk found.
type traversal struct {
	a       *augGraph
	classOf []int32
	chains  []chain
	spans   []span
	// pre numbers the nodes in preorder, last is the highest number in
	// a node's subtree, and in is the node's innermost span.
	pre, last, in []int32
	live          []bool // the nodes that reach END; nil when all do
	broken        bool   // some class is not totally ordered by dominance
	seen          []bool // scratch of findWrap's searches
	stack         []int32
}

// walk makes one directed depth-first traversal of the augmented graph
// from START and finds every region of the chosen mode.
//
// Chains: an edge that dominates another lies on the tree path to the
// other's source, so the traversal examines a class's edges in chain
// order. Examining a chain's first edge opens its region and examining
// its last closes it (Maximal), or each edge closes one pair and opens
// the next (Canonical); regions that end at the virtual end never
// close.
//
// Members: a node entered through a tree edge takes the innermost
// region open on its tree path, and a region holds its own nodes plus
// those of the regions opened inside it. Two kinds of block need more,
// because a region holds exactly the blocks its entry edge dominates
// and its exit edge postdominates:
//   - Blocks that reach no exit (an infinite loop) are postdominated by
//     nothing, so they belong only to regions that end at the virtual
//     end. The augmented graph is then not strongly connected, and a
//     class need not be a chain. Low links detect such blocks during
//     the traversal; only then does reassignDead search for them.
//   - A region also holds the blocks past its exit that can neither be
//     reached from START nor reach END except through it, such as the
//     rest of a loop body after a mid-loop exit test (findWrap).
//
// Every chain is checked as the traversal goes, at constant cost per
// edge: a class edge must be examined while the previous one's target
// is on the tree path and was entered through it, which holds exactly
// when the previous one dominates it. The check can fail only where
// blocks reach no exit, or on a signature collision.
func walk(a *augGraph, classes [][]int, mode Mode) traversal {
	nNodes := a.n + 2
	closeIdx := len(a.edges) - 1 // buildAug appends END->START last
	ints := make([]int32, 4*nNodes+len(a.edges))
	t := traversal{a: a, chains: make([]chain, len(classes))}
	t.pre, t.last, t.in = ints[:nNodes], ints[nNodes:2*nNodes], ints[2*nNodes:3*nNodes]
	low := ints[3*nNodes : 4*nNodes]
	t.classOf = ints[4*nNodes:]
	nspans := 0
	for c, class := range classes {
		ch := &t.chains[c]
		ch.n, ch.open, ch.to = int32(len(class)), -1, -1
		for _, i := range class {
			t.classOf[i] = int32(c)
			if i == closeIdx {
				ch.close = true
				ch.n--
			}
		}
		switch {
		case mode == Maximal && (ch.n >= 2 || ch.close):
			nspans++
		case mode == Canonical:
			nspans += max(int(ch.n)-1, 0)
			if ch.close {
				nspans++ // the pair ending at the virtual end
				if ch.n > 1 {
					nspans++ // the root
				}
			}
		}
	}
	t.spans = make([]span, 0, nspans)

	// Per node: on the current tree path; entered by a cross or forward
	// edge; known to reach END through nodes already finished; and the
	// same for its whole subtree.
	flags := make([]bool, 4*nNodes)
	onPath, side := flags[:nNodes], flags[nNodes:2*nNodes]
	reach, subReach := flags[2*nNodes:3*nNodes], flags[3*nNodes:]
	pre, in := t.pre, t.in
	for v := range pre {
		pre[v] = -1
	}
	type frame struct{ v, next int32 }
	stack := make([]frame, 1, nNodes)
	stack[0] = frame{v: int32(a.start)}
	pre[a.start], in[a.start] = 0, -1
	onPath[a.start], subReach[a.start], reach[a.end] = true, true, true
	visited := int32(1)
	dead := false
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		v := fr.v
		adj := a.adj[v]
		for int(fr.next) < len(adj) && a.edges[adj[fr.next].edge].from != int(v) {
			fr.next++
		}
		if int(fr.next) == len(adj) {
			stack = stack[:len(stack)-1]
			onPath[v] = false
			t.last[v] = visited - 1
			subReach[v] = subReach[v] && reach[v]
			if len(stack) > 0 {
				p := stack[len(stack)-1].v
				reach[p] = reach[p] || reach[v]
				subReach[p] = subReach[p] && subReach[v]
				low[p] = min(low[p], low[v])
				// v roots a strongly connected component without
				// START: its blocks reach no exit.
				dead = dead || low[v] == pre[v]
			}
			continue
		}
		i := adj[fr.next].edge
		fr.next++
		w := int32(a.edges[i].to)
		tree := pre[w] < 0
		if !tree {
			low[v] = min(low[v], pre[w])
			if !onPath[w] {
				side[w] = true
				reach[v] = reach[v] || reach[w]
			}
		}
		if i == closeIdx {
			continue
		}
		c := t.classOf[i]
		ch := &t.chains[c]
		ch.seen++
		if ch.seen > 1 && (ch.to < 0 || !onPath[ch.to]) {
			t.broken = true
		}
		ch.to = -1
		if tree {
			ch.to = w
		}
		cur := in[v]
		switch j := ch.seen; mode {
		case Maximal:
			switch {
			case j == 1 && (ch.n >= 2 || ch.close):
				cur = t.open(int32(i), cur, c)
			case j == ch.n && j >= 2 && !ch.close:
				t.spans[ch.open].exit = int32(i)
				cur = t.spans[ch.open].up
			}
		case Canonical:
			if j > 1 {
				t.spans[ch.open].exit = int32(i)
				cur = t.spans[ch.open].up
			}
			if j == 1 && ch.close && ch.n > 1 {
				cur = t.open(int32(i), cur, c) // the root
			}
			if j < ch.n || ch.close {
				cur = t.open(int32(i), cur, c)
			}
		}
		if tree {
			pre[w], low[w], in[w] = visited, visited, cur
			onPath[w], subReach[w] = true, true
			visited++
			stack = append(stack, frame{v: w})
		}
	}
	if dead {
		t.live = onPath // all false again: the traversal is over
		t.reassignDead()
	}
	for c := range t.chains {
		// Blocks past a class's last edge can belong to its regions
		// only if that edge is a tree edge whose target nothing else
		// enters from outside its subtree, and some block of the
		// subtree is not known to reach END.
		ch := &t.chains[c]
		if y := ch.to; !ch.close && ch.n >= 2 && y >= 0 && !side[y] && !subReach[y] {
			t.findWrap(int32(c))
		}
	}
	return t
}

// open starts a span at augmented edge entry inside span up and makes
// it class c's open span.
func (t *traversal) open(entry, up, c int32) int32 {
	s := int32(len(t.spans))
	t.spans = append(t.spans, span{entry: entry, exit: -1, up: up, class: c})
	t.chains[c].open = s
	return s
}

// reassignDead finds the blocks that reach no exit and moves each from
// the innermost region open on its tree path to the innermost of those
// that end at the virtual end. Such a region's entry dominates every
// node whose tree path passes it, so the block belongs to it.
func (t *traversal) reassignDead() {
	a, live := t.a, t.live
	t.search(-1, a.end, true, live)
	for x := 0; x < a.n; x++ {
		if !live[x] {
			s := t.in[x]
			for t.spans[s].exit >= 0 {
				s = t.spans[s].up
			}
			t.in[x] = s
		}
	}
}

// findWrap collects class c's wrap-around: the blocks past its last
// edge y that neither START reaches nor reach END except through the
// class's edges, and so are dominated by its first edge and
// postdominated by its last. Their tree path has left the class's
// regions, yet every region of the class holds them.
func (t *traversal) findWrap(c int32) {
	a := t.a
	n := a.n + 2
	if t.seen == nil {
		t.seen = make([]bool, 2*n)
		t.stack = make([]int32, 0, n)
	}
	clear(t.seen)
	fromStart, toEnd := t.seen[:n], t.seen[n:]
	t.search(c, a.start, false, fromStart)
	t.search(c, a.end, true, toEnd)
	ch := &t.chains[c]
	lo, hi := t.pre[ch.to], t.last[ch.to]
	for x := 0; x < a.n; x++ {
		if p := t.pre[x]; p >= lo && p <= hi && !fromStart[x] && !toEnd[x] && (t.live == nil || t.live[x]) {
			ch.wrap = append(ch.wrap, int32(x))
		}
	}
}

// search marks in seen the nodes reachable from root (or, if back,
// those that reach root) by edges outside class c.
func (t *traversal) search(c int32, root int, back bool, seen []bool) {
	a := t.a
	seen[root] = true
	stack := append(t.stack[:0], int32(root))
	for len(stack) > 0 {
		v := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		for _, he := range a.adj[v] {
			e := a.edges[he.edge]
			if t.classOf[he.edge] == c || (back && e.to != v) || (!back && e.from != v) {
				continue
			}
			if w := he.other; !seen[w] {
				seen[w] = true
				stack = append(stack, int32(w))
			}
		}
	}
	t.stack = stack
}

// regions turns the non-empty spans into Regions, their bitsets and
// block lists carved from slabs. A list holds the class's wrap-around
// first, then the blocks of its tree paths in ID order; assemble sorts
// it.
func (t *traversal) regions() []*Region {
	a := t.a
	f := a.f
	for _, b := range f.Blocks {
		t.spans[t.in[b.ID]].size++
	}
	for s := len(t.spans) - 1; s >= 0; s-- {
		if sp := &t.spans[s]; sp.up >= 0 {
			t.spans[sp.up].size += sp.size
		}
	}
	m, total := 0, 0
	for s := range t.spans {
		sp := &t.spans[s]
		sp.size += int32(len(t.chains[sp.class].wrap))
		if sp.size > 0 {
			m++
			total += int(sp.size)
		}
	}
	words := setWords(len(f.Blocks))
	slab := make([]Region, m)
	bits := make([]uint64, words*m)
	members := make([]*ir.Block, total)
	regions := make([]*Region, 0, m)
	for s := range t.spans {
		sp := &t.spans[s]
		if sp.size == 0 {
			continue
		}
		r := &slab[len(regions)]
		sp.region = int32(len(regions))
		regions = append(regions, r)
		r.in, bits = bits[:words:words], bits[words:]
		r.Blocks, members = members[:0:sp.size], members[sp.size:]
		if first := a.edges[sp.entry]; !first.isEntry {
			r.EntryEdge = first.real
		}
		if sp.exit >= 0 {
			if last := a.edges[sp.exit]; last.real != nil {
				r.ExitEdge = last.real
			} else {
				r.ExitBlock = last.exitFrom
			}
		}
		for _, x := range t.chains[sp.class].wrap {
			r.add(int(x))
			r.Blocks = append(r.Blocks, f.Blocks[x])
		}
	}
	for _, b := range f.Blocks {
		for s := t.in[b.ID]; s >= 0; s = t.spans[s].up {
			r := regions[t.spans[s].region]
			r.add(b.ID)
			r.Blocks = append(r.Blocks, b)
		}
	}
	return regions
}

// assemble derives the nesting structure of a region set: it sorts the
// regions deterministically, links parents and children, finds the
// root, and sets depths.
func assemble(f *ir.Func, regions []*Region) (*Region, error) {
	for _, r := range regions {
		slices.SortFunc(r.Blocks, func(x, y *ir.Block) int { return cmp.Compare(x.ID, y.ID) })
	}
	// Nesting: parent = smallest region strictly containing the child.
	// The comparator is a total order (distinct regions with identical
	// block sets differ in their boundaries), so the final region order
	// does not depend on the order regions were discovered in.
	slices.SortFunc(regions, func(ri, rj *Region) int {
		if c := cmp.Compare(len(ri.Blocks), len(rj.Blocks)); c != 0 {
			return c
		}
		if c := cmp.Compare(ri.Blocks[0].ID, rj.Blocks[0].ID); c != 0 {
			return c
		}
		ki, kj := boundaryKey(ri), boundaryKey(rj)
		return slices.Compare(ki[:], kj[:])
	})
	n := len(regions)
	ints := make([]int, 2*n)
	parent, kids := ints[:n], ints[n:] // parent index (-1: none), child count
	rootIdx := -1
	for i, r := range regions {
		parent[i] = -1
		for j := i + 1; j < n; j++ {
			if containsAll(regions[j], r) {
				parent[i] = j
				kids[j]++
				break
			}
		}
		if parent[i] < 0 && len(r.Blocks) == len(f.Blocks) {
			rootIdx = i
		}
	}
	if rootIdx < 0 {
		// Should not happen: the class of START->entry always covers
		// every block. Guard anyway.
		return nil, fmt.Errorf("pst.BuildMode(%s): no root region found", f.Name)
	}
	root := regions[rootIdx]
	// Any parentless non-root region hangs off the root (can occur if
	// its blocks equal the whole function but it is not the aug chain;
	// containsAll with equal sets attaches it above, so this is rare).
	// It follows the root's contained children.
	for i := range regions {
		if parent[i] < 0 && i != rootIdx {
			kids[rootIdx]++
		}
	}
	// Every region but the root has one parent, so one slice holds all
	// the Children lists.
	slab := make([]*Region, n-1)
	for i, r := range regions {
		if k := kids[i]; k > 0 {
			r.Children, slab = slab[:0:k], slab[k:]
		}
	}
	for i, r := range regions {
		if j := parent[i]; j >= 0 {
			r.Parent = regions[j]
			r.Parent.Children = append(r.Parent.Children, r)
		}
	}
	for i, r := range regions {
		if parent[i] < 0 && r != root {
			r.Parent = root
			root.Children = append(root.Children, r)
		}
	}
	for _, r := range regions {
		slices.SortFunc(r.Children, func(x, y *Region) int {
			return cmp.Compare(x.Blocks[0].ID, y.Blocks[0].ID)
		})
	}
	// A contained region sorts before its parent, so walking the order
	// backwards sets a parent's depth before its children's; orphans'
	// parent is the root.
	root.Depth = 0
	for i := n - 1; i >= 0; i-- {
		if r := regions[i]; r != root {
			r.Depth = r.Parent.Depth + 1
		}
	}
	return root, nil
}

// boundaryKey encodes a region's boundary as a sortable tuple so the
// region sort has a total order even between regions with identical
// block sets.
func boundaryKey(r *Region) [4]int {
	k := [4]int{-1, -1, -1, -1}
	if r.EntryEdge != nil {
		k[0], k[1] = r.EntryEdge.From.ID, r.EntryEdge.To.ID
	}
	switch {
	case r.ExitEdge != nil:
		k[2], k[3] = r.ExitEdge.From.ID, r.ExitEdge.To.ID
	case r.ExitBlock != nil:
		k[2] = r.ExitBlock.ID
	}
	return k
}

// containsAll reports whether outer strictly contains inner: a
// superset of blocks and strictly larger. The subset test runs a word
// of the bitsets at a time.
func containsAll(outer, inner *Region) bool {
	if len(outer.Blocks) <= len(inner.Blocks) {
		return false
	}
	for i, w := range inner.in {
		var o uint64
		if i < len(outer.in) {
			o = outer.in[i]
		}
		if w&^o != 0 {
			return false
		}
	}
	return true
}

// BottomUp returns the regions in topological order for the paper's
// traversal: every region appears after all of its children (smallest
// regions first, root last).
func (t *PST) BottomUp() []*Region {
	var out []*Region
	var walk func(r *Region)
	walk = func(r *Region) {
		for _, c := range r.Children {
			walk(c)
		}
		out = append(out, r)
	}
	walk(t.Root)
	return out
}

// SmallestContaining returns the innermost region containing block b.
func (t *PST) SmallestContaining(b *ir.Block) *Region {
	r := t.Root
	for {
		next := r
		for _, c := range r.Children {
			if c.ContainsBlock(b) {
				next = c
				break
			}
		}
		if next == r {
			return r
		}
		r = next
	}
}
