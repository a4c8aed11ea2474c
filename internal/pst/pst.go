package pst

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cfg"
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

	// Regions, their bitsets and their block lists come from slabs
	// sized for one region per class, refilled if Canonical mode needs
	// more.
	words := setWords(len(f.Blocks))
	var slab []Region
	var bits []uint64
	var members []*ir.Block
	// makeSpan builds the region between two chain positions; a to
	// index of -1 means the virtual end (all procedure exits).
	makeSpan := func(fromIdx, toIdx int) *Region {
		first := a.edges[fromIdx]
		if len(slab) == 0 {
			slab = make([]Region, len(classes))
			bits = make([]uint64, words*len(classes))
		}
		r := &slab[0]
		slab = slab[1:]
		r.in, bits = bits[:words:words], bits[words:]
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
		n := 0
		for _, b := range f.Blocks {
			nb := split.blockNode(b.ID)
			if dom.Dominates(en, nb) && (xn == nil || pdom.Dominates(xn, nb)) {
				r.add(b.ID)
				n++
			}
		}
		if len(members) < n {
			members = make([]*ir.Block, max(n, 4*len(f.Blocks)))
		}
		r.Blocks, members = members[:0:n], members[n:]
		for _, b := range f.Blocks {
			if r.has(b.ID) {
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
	var edges []int // the current class's chain, reused
	for _, class := range classes {
		// Drop the END->START edge from the chain; it orders last.
		hasClose := false
		edges = edges[:0]
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
		// Verify the chain is totally ordered (defensive: theory says
		// it always is; a hash collision would break it).
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
