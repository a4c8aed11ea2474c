// Package regalloc implements a Chaitin/Briggs style graph-coloring
// register allocator over the toy IR, standing in for the allocator
// the paper substitutes into GCC. It builds an interference graph
// over virtual registers, simplifies with optimistic (Briggs) color
// assignment, spills by a profile-weighted cost/degree heuristic, and
// honors the machine's calling convention: virtual registers live
// across a call may only receive callee-saved registers.
//
// Callee-saved save/restore code is deliberately NOT inserted here:
// that is the post register allocation spill code placement problem
// the rest of the repository studies. The allocator records which
// callee-saved registers an allocation writes in Func.UsedCalleeSaved.
//
// Spill candidates are ranked by a cost/degree heuristic. The cost is
// uniform by default — every def and use occurrence weighs its block's
// execution count, as if spill stores and loads had equal latency —
// which reproduces the paper's allocator. Options.MachineCosts instead
// prices each candidate with the machine's cost surface: spilling a
// web executes one store per def and one load per use, so the priced
// cost is defWeight*StoreCost + useWeight*LoadCost (dual-issue
// discount included). The jump/split penalties of the machine never
// enter this ranking because allocator spill code is always inserted
// inside blocks, adjacent to the def or use it serves — it can never
// force a jump block or split a critical edge; those penalties belong
// to the callee-saved placement layer, whose jump-edge model prices
// them. On a unit-cost machine (the classic preset) the priced cost
// equals the uniform cost integer for integer, so classic machine
// pricing is byte-identical to the default allocator.
package regalloc

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/par"
)

// Result reports what the allocator did to one function.
type Result struct {
	// Spilled lists virtual registers sent to stack slots, in the
	// order they were spilled.
	Spilled []ir.Reg
	// SpillWebs records the profile-weighted def/use shape of each
	// spilled web at the moment it was chosen, parallel to Spilled.
	// Spilling a web costs one store per weighted def and one load
	// per weighted use, so any machine's spill bill for this
	// allocation is sum(DefWeight*StoreCost + UseWeight*LoadCost).
	SpillWebs []SpillWeb
	// Iterations is the number of build-color rounds.
	Iterations int
	// UsedCalleeSaved mirrors Func.UsedCalleeSaved.
	UsedCalleeSaved []ir.Reg
}

// SpillWeb is the profile-weighted footprint of one spilled web.
type SpillWeb struct {
	Reg       ir.Reg
	DefWeight int64 // sum of block exec counts over the web's defs
	UseWeight int64 // sum of block exec counts over the web's uses
}

// Options tweaks the allocator's spill-choice heuristic.
type Options struct {
	// MachineCosts prices spill candidates with the machine's cost
	// surface (StoreCost per weighted def, LoadCost per weighted use)
	// instead of uniform unit weights. On a unit-cost machine this is
	// byte-identical to the uniform heuristic.
	MachineCosts bool
}

// pricer turns a node's weighted def/use counts into a spill cost.
// The uniform pricer (1,1) reproduces the classic def+use count.
type pricer struct {
	store, load int64
}

func newPricer(m *machine.Desc, opts Options) pricer {
	if opts.MachineCosts {
		return pricer{store: m.Costs.StoreCost(), load: m.Costs.LoadCost()}
	}
	return pricer{store: 1, load: 1}
}

func (p pricer) of(g *graph, i int32) int64 {
	return g.defCost[i]*p.store + g.useCost[i]*p.load
}

// maxRounds bounds spill-and-retry iteration; each round strictly
// reduces live range lengths so this is never reached in practice.
const maxRounds = 32

// AllocateProgram allocates every function of p across a bounded
// worker pool (parallelism <= 0 means GOMAXPROCS, 1 the serial path),
// returning each function's Result by name. Functions are independent
// — Allocate reads and writes only its own *ir.Func — so the result is
// identical for any parallelism. A recovered panic names its function.
func AllocateProgram(p *ir.Program, m *machine.Desc, parallelism int, opts Options) (map[string]*Result, error) {
	funcs := p.FuncsInOrder()
	results := make([]*Result, len(funcs))
	err := par.Do(len(funcs), parallelism, func(i int) error {
		r, err := Allocate(funcs[i], m, opts)
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, par.NamePanic(err, func(i int) string { return funcs[i].Name })
	}
	out := make(map[string]*Result, len(funcs))
	for i, f := range funcs {
		out[f.Name] = results[i]
	}
	return out, nil
}

// Allocate rewrites f in place, replacing every virtual register with
// a physical register and inserting spill code where needed.
func Allocate(f *ir.Func, m *machine.Desc, opts Options) (*Result, error) {
	if len(f.Params) > len(m.ArgRegs) {
		return nil, fmt.Errorf("regalloc: %s has %d params, machine passes at most %d",
			f.Name, len(f.Params), len(m.ArgRegs))
	}
	precolor := make(map[ir.Reg]ir.Reg)
	lowerParams(f, m)
	lowerReturns(f, m, precolor)

	res := &Result{}
	temps := int32(f.NumVirt) // later virtuals are spill temps, which must not respill
	for i, p := range f.Params {
		precolor[p] = m.ArgRegs[i]
	}

	pr := newPricer(m, opts)
	for round := 0; ; round++ {
		if round >= maxRounds {
			return nil, fmt.Errorf("regalloc: %s did not converge after %d rounds", f.Name, maxRounds)
		}
		res.Iterations++
		g := buildGraph(f, precolor, temps)
		colors, spills := color(g, m, pr)
		if len(spills) == 0 {
			rewrite(f, colors)
			res.UsedCalleeSaved = recordUsedCalleeSaved(f, m)
			exactSpillSlots(f)
			return res, nil
		}
		for _, v := range spills {
			i := v.VirtNum()
			res.Spilled = append(res.Spilled, v)
			res.SpillWebs = append(res.SpillWebs, SpillWeb{Reg: v, DefWeight: g.defCost[i], UseWeight: g.useCost[i]})
			insertSpillCode(f, v)
		}
	}
}

// lowerParams pins incoming parameters to the machine's argument
// registers: each param becomes a fresh virtual register that is
// immediately moved into the original parameter virtual at function
// entry, and the fresh virtual is precolored to the argument register.
// This keeps argument passing in caller-saved registers, as real
// conventions do.
func lowerParams(f *ir.Func, m *machine.Desc) {
	for i, old := range f.Params {
		nv := f.NewVirt()
		f.Params[i] = nv
		mv := &ir.Instr{Op: ir.OpMov, Dst: old, Src1: nv, Src2: ir.NoReg}
		// Insert moves in order after any previously inserted ones.
		f.Entry.InsertBefore(i, mv)
	}
}

// lowerReturns moves every returned value into the machine's return
// register through a fresh precolored virtual: `ret v` becomes
// `t = mov v; ret t` with t pinned to RetReg. Without this a return
// value could be allocated to a callee-saved register, which the exit
// restore would clobber.
func lowerReturns(f *ir.Func, m *machine.Desc, precolor map[ir.Reg]ir.Reg) {
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpRet || !t.Src1.IsValid() {
			continue
		}
		nv := f.NewVirt()
		precolor[nv] = m.RetReg
		mv := &ir.Instr{Op: ir.OpMov, Dst: nv, Src1: t.Src1, Src2: ir.NoReg}
		b.InsertBeforeTerminator(mv)
		t.Src1 = nv
	}
}

// graph is the interference graph over one function's virtual
// registers. Node i is virtual register i (r - ir.VirtBase). Every
// per-node slice has f.NumVirt entries; nodes lists, in ascending
// order, the ones the function references.
type graph struct {
	nodes    []int32
	nbr      []int32  // every node's neighbors, without repeats, back to back
	off      []int32  // node i's neighbors are nbr[off[i]:off[i+1]]
	defCost  []int64  // profile-weighted def count
	useCost  []int64  // profile-weighted use count
	crossing []bool   // live across a call: callee-saved only
	pre      []ir.Reg // precolored register or NoReg
	temps    int32    // nodes from temps on are unspillable spill temporaries
}

// adj returns node i's neighbors, in no particular order.
func (g *graph) adj(i int32) []int32 { return g.nbr[g.off[i]:g.off[i+1]] }

// liveSet is a sparse set of virtual numbers (Briggs and Torczon):
// O(1) add, remove and membership, and dense lists the members.
type liveSet struct {
	dense []int32 // capacity covers every virtual
	pos   []int32 // pos[v] is v's index in dense, if v is a member
}

func (s *liveSet) has(v int32) bool {
	p := s.pos[v]
	return int(p) < len(s.dense) && s.dense[p] == v
}

func (s *liveSet) add(v int32) {
	if !s.has(v) {
		s.pos[v] = int32(len(s.dense))
		s.dense = append(s.dense, v)
	}
}

func (s *liveSet) remove(v int32) {
	if s.has(v) {
		p, last := s.pos[v], s.dense[len(s.dense)-1]
		s.dense[p], s.pos[last] = last, p
		s.dense = s.dense[:len(s.dense)-1]
	}
}

// graphBuilder holds one buildGraph's scratch state. Its first scan
// counts each node's neighbors at cursor[i] = off[i+1] while g.nbr is
// nil; the second writes node i's next neighbor at nbr[cursor[i]].
type graphBuilder struct {
	g      *graph
	lv     *dataflow.Liveness
	live   liveSet
	cursor []int32
}

// buildGraph computes liveness and constructs the interference graph
// over virtual registers. A first backward scan tallies costs, call
// crossings and how many neighbors each node records; a second writes
// the neighbors into one slab, and a stamp per node drops repeats.
func buildGraph(f *ir.Func, precolor map[ir.Reg]ir.Reg, temps int32) *graph {
	n := f.NumVirt
	costs := make([]int64, 2*n)
	ints := make([]int32, 5*n+1)
	g := &graph{
		off:      ints[:n+1],
		defCost:  costs[:n],
		useCost:  costs[n:],
		crossing: make([]bool, n),
		pre:      slices.Repeat([]ir.Reg{ir.NoReg}, n),
		temps:    temps,
	}
	gb := graphBuilder{
		g:      g,
		lv:     dataflow.ComputeLiveness(f),
		live:   liveSet{dense: ints[n+1 : n+1 : 2*n+1], pos: ints[2*n+1 : 3*n+1]},
		cursor: g.off[1:],
	}
	gb.scan(f)
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	g.nbr = make([]int32, g.off[n])
	gb.cursor = ints[3*n+1 : 4*n+1]
	copy(gb.cursor, g.off[:n])
	gb.scan(f)

	// Compact the lists in place, keeping each neighbor's first entry.
	stamp := gb.cursor
	clear(stamp)
	w, lo := int32(0), int32(0)
	for i := 0; i < n; i++ {
		hi := g.off[i+1]
		g.off[i] = w
		for _, a := range g.nbr[lo:hi] {
			if stamp[a] != int32(i)+1 {
				stamp[a] = int32(i) + 1
				g.nbr[w] = a
				w++
			}
		}
		lo = hi
	}
	g.off[n] = w
	g.nbr = g.nbr[:w]

	for v, p := range precolor {
		g.pre[v-ir.VirtBase] = p
	}
	// Every def and use weighs at least 1, so a node is referenced
	// exactly when it has a cost.
	g.nodes = ints[4*n+1 : 4*n+1]
	for i := range n {
		if g.defCost[i]+g.useCost[i] > 0 {
			g.nodes = append(g.nodes, int32(i))
		}
	}
	return g
}

// scan walks every block backward from its live-out set: each virtual
// def interferes with every virtual live after it, and calls make the
// virtuals live across them callee-saved-only. Parameters are all
// simultaneously live at entry.
func (gb *graphBuilder) scan(f *ir.Func) {
	g, live := gb.g, &gb.live
	count := g.nbr == nil
	for i, p := range f.Params {
		for _, q := range f.Params[i+1:] {
			gb.link(int32(p-ir.VirtBase), []int32{int32(q - ir.VirtBase)})
		}
	}
	for _, b := range f.Blocks {
		w := max(b.ExecCount(), 1)
		live.dense = live.dense[:0]
		for _, r := range gb.lv.Out(b.ID) {
			if r.IsVirt() {
				live.add(int32(r - ir.VirtBase))
			}
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if d := in.Dst; d.IsVirt() {
				v := int32(d - ir.VirtBase)
				live.remove(v)
				gb.link(v, live.dense)
				if count {
					g.defCost[v] += w
				}
			}
			if in.Op == ir.OpCall && count {
				// Everything live across the call (after the def is
				// removed) must avoid caller-saved registers.
				for _, v := range live.dense {
					g.crossing[v] = true
				}
			}
			gb.use(in.Src1, w, count)
			gb.use(in.Src2, w, count)
			for _, r := range in.Args {
				gb.use(r, w, count)
			}
		}
	}
}

// use makes a read operand live and, when counting, adds its weight.
func (gb *graphBuilder) use(r ir.Reg, w int64, count bool) {
	if r.IsVirt() {
		v := int32(r - ir.VirtBase)
		gb.live.add(v)
		if count {
			gb.g.useCost[v] += w
		}
	}
}

// link records both directions of v's edge to each of others.
func (gb *graphBuilder) link(v int32, others []int32) {
	cur, nbr := gb.cursor, gb.g.nbr
	for _, a := range others {
		if nbr != nil {
			nbr[cur[v]], nbr[cur[a]] = a, v
		}
		cur[v]++
		cur[a]++
	}
}

// color runs simplify/select with optimistic coloring. It returns the
// chosen colors, indexed by virtual number (NoReg for uncolored), or
// the virtual registers to spill when coloring failed.
func color(g *graph, m *machine.Desc, pr pricer) ([]ir.Reg, []ir.Reg) {
	// Simplify: repeatedly remove the lowest-numbered node with degree
	// < allowed; if none qualifies, optimistically remove the cheapest
	// (potential spill). Degrees only fall and each node's allowed
	// count is fixed, so a node stays ready from the moment it
	// qualifies until it is removed, and the lowest set bit of ready is
	// the node a scan of nodes from the top would pick.
	n := len(g.pre)
	ints := make([]int32, 3*n)
	degree, allowed, stack := ints[:n], ints[n:2*n], ints[2*n:2*n]
	removed := make([]bool, n)
	ready := make([]uint64, (n+63)/64)
	low := n // no ready bit lies below low
	for _, i := range g.nodes {
		// allowed is how many colors the node could take in principle.
		switch {
		case g.pre[i] != ir.NoReg:
			allowed[i] = 1
		case g.crossing[i]:
			allowed[i] = int32(m.NumCalleeSaved())
		default:
			allowed[i] = int32(m.NumRegs)
		}
		degree[i] = g.off[i+1] - g.off[i]
		if degree[i] < allowed[i] {
			ready[i/64] |= 1 << (i % 64)
			low = min(low, int(i))
		}
	}
	for len(stack) < len(g.nodes) {
		best := int32(-1)
		for w := low / 64; w < len(ready); w++ {
			if ready[w] != 0 {
				best = int32(w*64 + bits.TrailingZeros64(ready[w]))
				break
			}
		}
		if best < 0 {
			best = spillCandidate(g, removed, degree, pr)
		}
		removed[best] = true
		ready[best/64] &^= 1 << (best % 64)
		low = int(best) // best was the lowest ready node, or none was ready
		for _, a := range g.adj(best) {
			if !removed[a] {
				degree[a]--
				if degree[a] < allowed[a] {
					ready[a/64] |= 1 << (a % 64)
					low = min(low, int(a))
				}
			}
		}
		stack = append(stack, best)
	}

	// Select in reverse order.
	colors := slices.Repeat([]ir.Reg{ir.NoReg}, n)
	var spills []ir.Reg
	for k := len(stack) - 1; k >= 0; k-- {
		i := stack[k]
		var inUse uint64 // physical registers < ir.VirtBase = 64
		for _, a := range g.adj(i) {
			if c := colors[a]; c != ir.NoReg {
				inUse |= 1 << c
			}
		}
		choice := ir.NoReg
		switch {
		case g.pre[i] != ir.NoReg:
			if inUse&(1<<g.pre[i]) != 0 {
				// A precolored conflict means a neighbor must spill,
				// not the precolored node.
				spills = append(spills, pickNeighborSpill(g, i, pr))
				continue
			}
			choice = g.pre[i]
		case g.crossing[i]:
			choice = lowestFree(inUse, m.CalleeSavedFrom, m.NumRegs)
		default:
			// Caller-saved registers (cheapest) come first, then the
			// callee-saved ones.
			choice = lowestFree(inUse, 0, m.NumRegs)
		}
		if choice == ir.NoReg {
			spills = append(spills, ir.Virt(int(i)))
			continue
		}
		colors[i] = choice
	}
	return colors, dedupRegs(spills)
}

// spillCandidate picks the node to push optimistically when none is
// ready: the lowest cost/degree ratio among spillable nodes (the first
// on ties), or the first remaining node when only unspillable ones are
// left.
func spillCandidate(g *graph, removed []bool, degree []int32, pr pricer) int32 {
	best, bestScore := int32(-1), 0.0
	for _, i := range g.nodes {
		if removed[i] || i >= g.temps || g.pre[i] != ir.NoReg {
			continue
		}
		score := float64(pr.of(g, i)) / float64(max(degree[i], 1))
		if best < 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	if best < 0 {
		for _, i := range g.nodes {
			if !removed[i] {
				return i
			}
		}
	}
	return best
}

// lowestFree returns the lowest register in [lo, hi) not in inUse, or
// NoReg.
func lowestFree(inUse uint64, lo, hi int) ir.Reg {
	free := (uint64(1)<<hi - 1) &^ (uint64(1)<<lo - 1) &^ inUse
	if free == 0 {
		return ir.NoReg
	}
	return ir.Reg(bits.TrailingZeros64(free))
}

// pickNeighborSpill selects the cheapest neighbor of precolored node i
// to spill; ties go to the lowest-numbered neighbor.
func pickNeighborSpill(g *graph, i int32, pr pricer) ir.Reg {
	best, bestCost := int32(-1), int64(0)
	for _, a := range g.adj(i) {
		if g.pre[a] != ir.NoReg || a >= g.temps {
			continue
		}
		// Neighbor lists are unordered, so the tie-break is explicit.
		if c := pr.of(g, a); best < 0 || c < bestCost || c == bestCost && a < best {
			best, bestCost = a, c
		}
	}
	if best < 0 {
		// Nothing reasonable; fall back to the precolored node itself
		// (will error upstream if it recurs).
		best = i
	}
	return ir.Virt(int(best))
}

// dedupRegs drops repeats, keeping first occurrences. Only neighbor
// spills of precolored conflicts can repeat.
func dedupRegs(rs []ir.Reg) []ir.Reg {
	out := rs[:0]
	for _, r := range rs {
		if !slices.Contains(out, r) {
			out = append(out, r)
		}
	}
	return out
}

// exactSpillSlots resizes f.SpillSlots to exactly cover the spill
// slots the final code references, so the VM's fixed-size frames never
// carry dead slots (and can never need to grow mid-run).
func exactSpillSlots(f *ir.Func) {
	f.SpillSlots = f.MaxFrameSlot(ir.OpSpillLoad, ir.OpSpillStore) + 1
}

// insertSpillCode assigns v a stack slot and rewrites every use and
// def through fresh short-lived temporaries.
func insertSpillCode(f *ir.Func, v ir.Reg) {
	slot := int64(f.SpillSlots)
	f.SpillSlots++
	for _, b := range f.Blocks {
		for i := 0; i < len(b.Instrs); i++ {
			in := b.Instrs[i]
			if in.Src1 == v || in.Src2 == v || slices.Contains(in.Args, v) {
				t := f.NewVirt()
				ld := &ir.Instr{Op: ir.OpSpillLoad, Dst: t, Src1: ir.NoReg, Src2: ir.NoReg,
					Imm: slot, Flags: ir.FlagSpill}
				b.InsertBefore(i, ld)
				i++
				replaceUses(b.Instrs[i], v, t)
			}
			if in.Def() == v {
				t := f.NewVirt()
				in.Dst = t
				st := &ir.Instr{Op: ir.OpSpillStore, Dst: ir.NoReg, Src1: t, Src2: ir.NoReg,
					Imm: slot, Flags: ir.FlagSpill}
				b.InsertBefore(i+1, st)
				i++
			}
		}
	}
	// Params cannot be spilled this way (they are precolored temps
	// moved at entry), and v should no longer appear anywhere.
}

func replaceUses(in *ir.Instr, from, to ir.Reg) {
	if in.Src1 == from {
		in.Src1 = to
	}
	if in.Src2 == from {
		in.Src2 = to
	}
	for i, a := range in.Args {
		if a == from {
			in.Args[i] = to
		}
	}
}

// rewrite replaces every virtual register with its color.
func rewrite(f *ir.Func, colors []ir.Reg) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.Dst = recolor(in.Dst, colors)
			in.Src1 = recolor(in.Src1, colors)
			in.Src2 = recolor(in.Src2, colors)
			for i, a := range in.Args {
				in.Args[i] = recolor(a, colors)
			}
		}
	}
	for i, p := range f.Params {
		f.Params[i] = recolor(p, colors)
	}
	f.NumVirt = 0
}

// recolor returns r's color if r is virtual, and r otherwise. A
// virtual left uncolored is dead everywhere: any caller-saved register
// would do, and r0 keeps it deterministic.
func recolor(r ir.Reg, colors []ir.Reg) ir.Reg {
	if !r.IsVirt() {
		return r
	}
	if c := colors[r-ir.VirtBase]; c != ir.NoReg {
		return c
	}
	return ir.Phys(0)
}

// recordUsedCalleeSaved scans the allocated body for callee-saved
// registers that are written and records them on the function.
func recordUsedCalleeSaved(f *ir.Func, m *machine.Desc) []ir.Reg {
	var used uint64
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if d := in.Def(); d.IsPhys() && m.IsCalleeSaved(d) {
				used |= 1 << d
			}
		}
	}
	var out []ir.Reg
	for ; used != 0; used &= used - 1 {
		out = append(out, ir.Reg(bits.TrailingZeros64(used)))
	}
	f.UsedCalleeSaved = out
	return out
}
