// Package cfg provides control flow graph analyses over ir.Func:
// dominators, postdominators, depth-first orders, natural loops, and
// reducibility — the structural facts consumed by the PST builder,
// the register allocator, and spill code placement.
package cfg

import (
	"slices"

	"repro/internal/ir"
)

// DomTree holds an (immediate-)dominator tree computed by the
// iterative Cooper-Harvey-Kennedy algorithm. It serves for both
// dominance (over the forward CFG) and postdominance (over the
// reverse CFG with a virtual exit).
type DomTree struct {
	// IDom[b.ID] is the immediate dominator of b, or nil for the root
	// and for nodes unreachable in the direction analyzed.
	IDom []*ir.Block
	// Children[b.ID] lists blocks immediately dominated by b.
	Children [][]*ir.Block
	// level[b.ID] is the depth of b in the dominator tree. pre[b.ID]
	// and last[b.ID] bound b's subtree in a depth-first numbering of
	// the tree, so a dominates b iff pre[a] <= pre[b] <= last[a].
	level, pre, last []int32
}

// Dominators computes the dominator tree of f rooted at the entry.
func Dominators(f *ir.Func) *DomTree {
	return buildDomTreeDir(f, f.Entry, ReversePostorder(f), false)
}

// Postdominators computes the postdominator tree of f. Functions with
// multiple exit blocks are handled by treating every exit as having an
// edge to a virtual exit; the virtual exit is represented by a nil
// immediate postdominator on the exits themselves (each exit is a root
// of its own subtree under the virtual exit). Blocks from which no
// exit is reachable (infinite loops) get nil as well.
func Postdominators(f *ir.Func) *DomTree {
	exits := f.Exits()
	if len(exits) == 1 {
		order := reversePostorderFrom(f, exits[0], true)
		return buildDomTreeDir(f, exits[0], order, true)
	}
	// Multiple or zero exits: compute with a virtual root. We run the
	// CHK iteration treating all exits as roots (idom fixed to nil).
	return buildMultiRootPostdom(f, exits)
}

// ReversePostorder returns the blocks of f in reverse postorder of a
// DFS from the entry over forward edges.
func ReversePostorder(f *ir.Func) []*ir.Block {
	return reversePostorderFrom(f, f.Entry, false)
}

// Postorder returns the blocks in postorder of a DFS from the entry.
func Postorder(f *ir.Func) []*ir.Block {
	rpo := ReversePostorder(f)
	out := make([]*ir.Block, len(rpo))
	for i, b := range rpo {
		out[len(rpo)-1-i] = b
	}
	return out
}

func reversePostorderFrom(f *ir.Func, root *ir.Block, reverse bool) []*ir.Block {
	post := postorder(root, reverse, make([]bool, len(f.Blocks)), make([]*ir.Block, 0, len(f.Blocks)))
	slices.Reverse(post)
	return post
}

// postorder appends to post, in finishing order, the blocks a
// depth-first walk from root reaches without entering a block already
// seen, and marks them seen. It visits successors in list order, as the
// recursive walk would; reverse walks predecessor edges instead.
func postorder(root *ir.Block, reverse bool, seen []bool, post []*ir.Block) []*ir.Block {
	type frame struct {
		b    *ir.Block
		next int // index of the next edge to follow
	}
	seen[root.ID] = true
	stack := []frame{{b: root}}
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		edges := fr.b.Succs
		if reverse {
			edges = fr.b.Preds
		}
		if fr.next == len(edges) {
			post = append(post, fr.b)
			stack = stack[:len(stack)-1]
			continue
		}
		e := edges[fr.next]
		fr.next++
		w := e.To
		if reverse {
			w = e.From
		}
		if !seen[w.ID] {
			seen[w.ID] = true
			stack = append(stack, frame{b: w})
		}
	}
	return post
}

// buildDomTreeDir runs the Cooper-Harvey-Kennedy iterative dominance
// algorithm over the given traversal order. If post is true, edges are
// walked in reverse (predecessors become successors).
func buildDomTreeDir(f *ir.Func, root *ir.Block, order []*ir.Block, post bool) *DomTree {
	n := len(f.Blocks)
	t := &DomTree{IDom: make([]*ir.Block, n)}
	// rpoNum[b.ID] = position in order; lower = closer to root.
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range order {
		rpoNum[b.ID] = i
	}
	t.IDom[root.ID] = root // temporarily self, per CHK
	intersect := func(b1, b2 *ir.Block) *ir.Block {
		for b1 != b2 {
			for rpoNum[b1.ID] > rpoNum[b2.ID] {
				b1 = t.IDom[b1.ID]
			}
			for rpoNum[b2.ID] > rpoNum[b1.ID] {
				b2 = t.IDom[b2.ID]
			}
		}
		return b1
	}
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			if b == root {
				continue
			}
			var newIDom *ir.Block
			edges := b.Preds
			if post {
				edges = b.Succs
			}
			for _, e := range edges {
				p := e.From
				if post {
					p = e.To
				}
				if rpoNum[p.ID] < 0 || t.IDom[p.ID] == nil {
					continue // unreachable or unprocessed
				}
				if newIDom == nil {
					newIDom = p
				} else {
					newIDom = intersect(p, newIDom)
				}
			}
			if newIDom != nil && t.IDom[b.ID] != newIDom {
				t.IDom[b.ID] = newIDom
				changed = true
			}
		}
	}
	t.IDom[root.ID] = nil
	t.finish(f)
	return t
}

// buildMultiRootPostdom handles postdominance with several (or zero)
// exit blocks by making each exit a root.
func buildMultiRootPostdom(f *ir.Func, exits []*ir.Block) *DomTree {
	n := len(f.Blocks)
	t := &DomTree{IDom: make([]*ir.Block, n)}
	if len(exits) == 0 {
		t.finish(f)
		return t
	}
	// Build a combined reverse-DFS order from all exits.
	seen := make([]bool, n)
	order := make([]*ir.Block, 0, n)
	for _, x := range exits {
		if !seen[x.ID] {
			order = postorder(x, true, seen, order)
		}
	}
	slices.Reverse(order)
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, b := range order {
		rpoNum[b.ID] = i
	}
	isExit := make([]bool, n)
	for _, x := range exits {
		isExit[x.ID] = true
		t.IDom[x.ID] = x
	}
	intersect := func(b1, b2 *ir.Block) *ir.Block {
		for b1 != b2 {
			for rpoNum[b1.ID] > rpoNum[b2.ID] {
				nxt := t.IDom[b1.ID]
				if nxt == b1 {
					return nil // reached a root
				}
				b1 = nxt
			}
			for rpoNum[b2.ID] > rpoNum[b1.ID] {
				nxt := t.IDom[b2.ID]
				if nxt == b2 {
					return nil
				}
				b2 = nxt
			}
		}
		return b1
	}
	changed := true
	for changed {
		changed = false
		for _, b := range order {
			if isExit[b.ID] {
				continue
			}
			var newIDom *ir.Block
			merged := false
			for _, e := range b.Succs {
				s := e.To
				if rpoNum[s.ID] < 0 || t.IDom[s.ID] == nil {
					continue
				}
				if newIDom == nil {
					newIDom = s
					continue
				}
				m := intersect(s, newIDom)
				if m == nil {
					// Successors postdominated by different exits:
					// only the virtual exit postdominates b.
					merged = true
					break
				}
				newIDom = m
			}
			if merged {
				if t.IDom[b.ID] != b {
					t.IDom[b.ID] = b // self marks "virtual exit is idom"
					changed = true
				}
				continue
			}
			if newIDom != nil && t.IDom[b.ID] != newIDom {
				t.IDom[b.ID] = newIDom
				changed = true
			}
		}
	}
	// Normalize: self-idom means immediate postdominator is the
	// virtual exit, which we encode as nil.
	for i := range t.IDom {
		if t.IDom[i] == f.Blocks[i] {
			t.IDom[i] = nil
		}
	}
	t.finish(f)
	return t
}

// finish derives Children, levels and subtree intervals from IDom.
// Every node's children are carved, in layout order, from one slice; a
// depth-first walk from each root, in layout order, numbers the
// subtrees so that Dominates is an interval test.
func (t *DomTree) finish(f *ir.Func) {
	n := len(f.Blocks)
	ints := make([]int32, 3*n)
	t.level, t.pre, t.last = ints[:n:n], ints[n:2*n:2*n], ints[2*n:]

	kids := t.last // child counts until the walk below numbers subtrees
	total := 0
	for _, b := range f.Blocks {
		if d := t.IDom[b.ID]; d != nil {
			kids[d.ID]++
			total++
		}
	}
	slab := make([]*ir.Block, total)
	t.Children = make([][]*ir.Block, n)
	for id, k := range kids {
		if k > 0 {
			t.Children[id], slab = slab[:0:k], slab[k:]
		}
	}
	for _, b := range f.Blocks {
		if d := t.IDom[b.ID]; d != nil {
			t.Children[d.ID] = append(t.Children[d.ID], b)
		}
	}

	// buf holds the preorder from the front and the walk's stack at the
	// back; no block is in both, so they never overlap.
	buf := make([]*ir.Block, n)
	numbered, top := 0, n
	for _, r := range f.Blocks {
		if t.IDom[r.ID] != nil {
			continue
		}
		top--
		buf[top] = r
		for top < n {
			b := buf[top]
			top++
			t.pre[b.ID] = int32(numbered)
			buf[numbered] = b
			numbered++
			for _, c := range t.Children[b.ID] {
				t.level[c.ID] = t.level[b.ID] + 1
				top--
				buf[top] = c
			}
		}
	}
	// A subtree's numbers run from its root's to those of its first
	// child's subtree, which the stack visits last.
	for i := numbered - 1; i >= 0; i-- {
		b := buf[i]
		t.last[b.ID] = t.pre[b.ID]
		if c := t.Children[b.ID]; len(c) > 0 {
			t.last[b.ID] = t.last[c[0].ID]
		}
	}
}

// Dominates reports whether a dominates b (reflexively). For a
// postdominator tree this means "a postdominates b". Blocks under
// different roots are unrelated.
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	if a == nil || b == nil {
		return false
	}
	if a == b {
		return true
	}
	p := t.pre[b.ID]
	return t.pre[a.ID] <= p && p <= t.last[a.ID]
}

// StrictlyDominates reports a dominates b and a != b.
func (t *DomTree) StrictlyDominates(a, b *ir.Block) bool {
	return a != b && t.Dominates(a, b)
}

// Level returns b's depth in the tree (0 for roots).
func (t *DomTree) Level(b *ir.Block) int { return int(t.level[b.ID]) }
