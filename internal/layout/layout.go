// Package layout implements jump alignment (branch alignment): a
// profile-guided reordering of basic blocks that places the hottest
// control flow edges on the fall-through path, in the style of
// McFarling/Hennessy and Pettis/Hansen chaining. The paper cites jump
// alignment as the reason its jump edge cost model is conservative —
// "if the execution count of jump edges is minimized, as would be the
// case in a procedure where jump alignment has been performed, the
// jump edge cost model more closely represents the real cost" — but
// leaves it out of scope. This package provides it as an extension so
// that claim can be measured (see the alignment tests and bench).
package layout

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/machine"
)

// Align reorders f's blocks greedily: edges are visited hottest first,
// and an edge u->v glues u's chain to v's chain when u is a chain tail
// and v a chain head. The entry block's chain is laid out first, then
// remaining chains by original position. Edge kinds are reclassified
// from the new layout; the CFG itself is untouched.
func Align(f *ir.Func) {
	n := len(f.Blocks)
	if n <= 2 {
		return
	}
	// Chain bookkeeping: chainOf[b] -> chain id; chains[id] is a block
	// sequence. Merging appends v's chain to u's.
	chainOf := make([]int, n)
	chains := make([][]*ir.Block, n)
	for i, b := range f.Blocks {
		chainOf[b.ID] = i
		chains[i] = []*ir.Block{b}
	}
	head := func(c int) *ir.Block { return chains[c][0] }
	tail := func(c int) *ir.Block { return chains[c][len(chains[c])-1] }

	edges := f.Edges()
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].Weight > edges[j].Weight })
	for _, e := range edges {
		cu, cv := chainOf[e.From.ID], chainOf[e.To.ID]
		if cu == cv {
			continue
		}
		// v must not be the entry block (entry stays a chain head at
		// position zero) and the junction must be tail-to-head.
		if e.To == f.Entry || tail(cu) != e.From || head(cv) != e.To {
			continue
		}
		chains[cu] = append(chains[cu], chains[cv]...)
		for _, b := range chains[cv] {
			chainOf[b.ID] = cu
		}
		chains[cv] = nil
	}

	// Emit: entry chain first, then the rest in original head order.
	var order []*ir.Block
	emit := func(c int) {
		order = append(order, chains[c]...)
		chains[c] = nil
	}
	emit(chainOf[f.Entry.ID])
	for i := range chains {
		if len(chains[i]) > 0 {
			emit(i)
		}
	}
	f.Blocks = order
	f.RenumberBlocks()
	f.ClassifyEdges()
}

// JumpWeight sums the execution counts of all jump edges — the
// quantity alignment minimizes.
func JumpWeight(f *ir.Func) int64 {
	var total int64
	for _, e := range f.Edges() {
		if e.Kind == ir.Jump {
			total += e.Weight
		}
	}
	return total
}

// Cost prices a measured edge profile under a machine's control-flow
// costs: every traversal of a jump edge at the taken-jump penalty,
// every fall-through traversal at the (usually free) fall-through
// cost. This is the quantity alignment minimizes, priced the same way
// the placement cost models price jump blocks, so layout and spill
// placement gains add on a common scale.
func Cost(p *ir.Program, counts map[*ir.Edge]int64, c machine.Costs) int64 {
	var total int64
	for _, f := range p.FuncsInOrder() {
		for _, b := range f.Blocks {
			for _, e := range b.Succs {
				switch e.Kind {
				case ir.Jump:
					total += counts[e] * c.JumpCost()
				case ir.FallThrough:
					total += counts[e] * c.FallCost()
				}
			}
		}
	}
	return total
}
