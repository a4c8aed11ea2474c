package cfg

import (
	"sort"

	"repro/internal/ir"
)

// Loop is a natural loop: a back edge target (header) plus every block
// that can reach the back edge source without passing through the
// header. Loops sharing a header are merged.
type Loop struct {
	Header *ir.Block
	// Blocks contains the loop body including the header, sorted by ID.
	Blocks []*ir.Block
	// Parent is the innermost enclosing loop, or nil.
	Parent *Loop
	// Depth is 1 for outermost loops, increasing inward.
	Depth int
	in    map[int]bool
}

// Contains reports whether b belongs to the loop body.
func (l *Loop) Contains(b *ir.Block) bool { return l.in[b.ID] }

// LoopForest holds all natural loops of a function plus a per-block
// nesting depth (0 = not in any loop).
type LoopForest struct {
	Loops []*Loop
	// DepthOf[b.ID] is the loop nesting depth of b.
	DepthOf []int
	// InnermostOf[b.ID] is the innermost loop containing b, or nil.
	InnermostOf []*Loop
}

// FindLoops detects natural loops using the dominator tree: an edge
// t->h is a back edge iff h dominates t. Irreducible cycles (whose
// entry does not dominate the cycle) are not reported as loops; this
// matches the classic natural-loop treatment in the compilers
// literature the paper builds on.
func FindLoops(f *ir.Func, dom *DomTree) *LoopForest {
	byHeader := make(map[*ir.Block]*Loop)
	for _, b := range f.Blocks {
		for _, e := range b.Succs {
			h := e.To
			if !dom.Dominates(h, b) {
				continue
			}
			l := byHeader[h]
			if l == nil {
				l = &Loop{Header: h, in: map[int]bool{h.ID: true}}
				byHeader[h] = l
			}
			// Walk predecessors backward from the back edge source.
			var stack []*ir.Block
			if !l.in[b.ID] {
				l.in[b.ID] = true
				stack = append(stack, b)
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, pe := range x.Preds {
					p := pe.From
					if !l.in[p.ID] {
						l.in[p.ID] = true
						stack = append(stack, p)
					}
				}
			}
		}
	}

	lf := &LoopForest{
		DepthOf:     make([]int, len(f.Blocks)),
		InnermostOf: make([]*Loop, len(f.Blocks)),
	}
	for _, l := range byHeader {
		for id := range l.in {
			l.Blocks = append(l.Blocks, f.Blocks[id])
		}
		sort.Slice(l.Blocks, func(i, j int) bool { return l.Blocks[i].ID < l.Blocks[j].ID })
		lf.Loops = append(lf.Loops, l)
	}
	// Deterministic order: by header ID, ties by size (outer first).
	sort.Slice(lf.Loops, func(i, j int) bool {
		if lf.Loops[i].Header.ID != lf.Loops[j].Header.ID {
			return lf.Loops[i].Header.ID < lf.Loops[j].Header.ID
		}
		return len(lf.Loops[i].Blocks) > len(lf.Loops[j].Blocks)
	})

	// Nesting: loop A is parent of B if A != B and A contains B's
	// header and B's body is a subset of A's (containment of header is
	// sufficient for natural loops with distinct headers).
	for _, inner := range lf.Loops {
		var best *Loop
		for _, outer := range lf.Loops {
			if outer == inner || !outer.Contains(inner.Header) {
				continue
			}
			if len(outer.Blocks) <= len(inner.Blocks) {
				continue
			}
			if best == nil || len(outer.Blocks) < len(best.Blocks) {
				best = outer
			}
		}
		inner.Parent = best
	}
	for _, l := range lf.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	// Per-block depth = max depth of containing loops.
	for _, l := range lf.Loops {
		for _, b := range l.Blocks {
			if l.Depth > lf.DepthOf[b.ID] {
				lf.DepthOf[b.ID] = l.Depth
				lf.InnermostOf[b.ID] = l
			}
		}
	}
	return lf
}

// IsReducible reports whether every cycle in the CFG has a back edge
// to a dominating header (i.e. every retreating edge is a back edge).
func IsReducible(f *ir.Func, dom *DomTree) bool {
	// DFS classification: an edge b->h is retreating if h is an
	// ancestor of b in the DFS stack.
	state := make([]int, len(f.Blocks)) // 0 unvisited, 1 on stack, 2 done
	reducible := true
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		state[b.ID] = 1
		for _, e := range b.Succs {
			s := e.To
			switch state[s.ID] {
			case 0:
				dfs(s)
			case 1:
				if !dom.Dominates(s, b) {
					reducible = false
				}
			}
		}
		state[b.ID] = 2
	}
	dfs(f.Entry)
	return reducible
}
