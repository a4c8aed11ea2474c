package core

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

// Apply physically inserts the save/restore instructions described by
// sets into f, creating jump blocks where spill code must live on jump
// edges. Save slots are assigned per register and recorded in
// f.SaveSlots. The function is mutated; callers comparing strategies
// should Apply to clones.
//
// At any single program point restores are inserted before saves, so a
// point that ends one allocation web and begins another stays correct.
func Apply(f *ir.Func, sets []*Set) error {
	_, err := ApplyWithDelta(f, sets)
	return err
}

// ApplyWithDelta is Apply plus the log of the edges it split. The
// returned delta is never nil; if Apply failed partway, it lists the
// splits made before the failure.
func ApplyWithDelta(f *ir.Func, sets []*Set) (*Delta, error) {
	d := &Delta{}
	return d, apply(f, sets, d)
}

// apply is the body of Apply, recording the edge splits into d.
func apply(f *ir.Func, sets []*Set, d *Delta) error {
	slots := saveSlots(f, sets)

	type edgePlan struct {
		restores []ir.Reg
		saves    []ir.Reg
	}
	heads := make(map[*ir.Block]*edgePlan)
	tails := make(map[*ir.Block]*edgePlan)
	onEdge := make(map[*ir.Edge]*edgePlan)
	var edgeOrder []*ir.Edge

	plan := func(m map[*ir.Block]*edgePlan, b *ir.Block) *edgePlan {
		p := m[b]
		if p == nil {
			p = &edgePlan{}
			m[b] = p
		}
		return p
	}
	planEdge := func(e *ir.Edge) *edgePlan {
		p := onEdge[e]
		if p == nil {
			p = &edgePlan{}
			onEdge[e] = p
			edgeOrder = append(edgeOrder, e)
		}
		return p
	}

	for _, s := range sets {
		for _, l := range s.Saves {
			switch l.Kind {
			case BlockHead:
				p := plan(heads, l.Block)
				p.saves = append(p.saves, s.Reg)
			case BlockTail:
				p := plan(tails, l.Block)
				p.saves = append(p.saves, s.Reg)
			case OnEdge:
				p := planEdge(l.Edge)
				p.saves = append(p.saves, s.Reg)
			}
		}
		for _, l := range s.Restores {
			switch l.Kind {
			case BlockHead:
				p := plan(heads, l.Block)
				p.restores = append(p.restores, s.Reg)
			case BlockTail:
				p := plan(tails, l.Block)
				p.restores = append(p.restores, s.Reg)
			case OnEdge:
				p := planEdge(l.Edge)
				p.restores = append(p.restores, s.Reg)
			}
		}
	}

	saveInstr := func(r ir.Reg) *ir.Instr {
		return &ir.Instr{Op: ir.OpSave, Dst: ir.NoReg, Src1: r, Src2: ir.NoReg,
			Imm: int64(slots[r]), Flags: ir.FlagSaveRestore}
	}
	restoreInstr := func(r ir.Reg) *ir.Instr {
		return &ir.Instr{Op: ir.OpRestore, Dst: r, Src1: ir.NoReg, Src2: ir.NoReg,
			Imm: int64(slots[r]), Flags: ir.FlagSaveRestore}
	}

	// In-block insertions. Deterministic order: by register number.
	for b, p := range heads {
		sortRegs(p.restores)
		sortRegs(p.saves)
		// Insert at head: final order = restores then saves, so insert
		// saves first (each InsertAtHead prepends).
		for i := len(p.saves) - 1; i >= 0; i-- {
			b.InsertAtHead(saveInstr(p.saves[i]))
		}
		for i := len(p.restores) - 1; i >= 0; i-- {
			b.InsertAtHead(restoreInstr(p.restores[i]))
		}
	}
	for b, p := range tails {
		sortRegs(p.restores)
		sortRegs(p.saves)
		for _, r := range p.restores {
			b.InsertBeforeTerminator(restoreInstr(r))
		}
		for _, r := range p.saves {
			b.InsertBeforeTerminator(saveInstr(r))
		}
	}

	// Edge insertions: split each edge once, placing all spill code
	// for that edge in a single new block so at most one jump
	// instruction is added per edge.
	for i, e := range edgeOrder {
		p := onEdge[e]
		sortRegs(p.restores)
		sortRegs(p.saves)
		var body []*ir.Instr
		for _, r := range p.restores {
			body = append(body, restoreInstr(r))
		}
		for _, r := range p.saves {
			body = append(body, saveInstr(r))
		}
		split, err := splitEdge(f, e, fmt.Sprintf("jb%d", i), body)
		if err != nil {
			return err
		}
		d.Splits = append(d.Splits, split)
	}

	f.RenumberBlocks()

	// Exact frame sizing: after insertion the save area is exactly the
	// highest slot any save/restore references, plus one. A stale,
	// larger count from an earlier pipeline stage would make every
	// frame carry dead slots for the rest of the program's life.
	f.SaveSlots = f.MaxFrameSlot(ir.OpSave, ir.OpRestore) + 1

	return ir.Verify(f)
}

func sortRegs(rs []ir.Reg) {
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
}

// saveSlots assigns a frame save slot to every register appearing in
// sets. Apply recomputes f.SaveSlots exactly after insertion.
func saveSlots(f *ir.Func, sets []*Set) map[ir.Reg]int {
	slots := make(map[ir.Reg]int)
	var regs []ir.Reg
	for _, s := range sets {
		if _, ok := slots[s.Reg]; !ok {
			slots[s.Reg] = 0
			regs = append(regs, s.Reg)
		}
	}
	sortRegs(regs)
	for i, r := range regs {
		slots[r] = i
	}
	return slots
}

// splitEdge replaces edge e with From -> nb -> To where nb holds body
// followed by a jump to To. For a fall-through edge the new block is
// laid out directly after From, keeping both halves fall-through and
// costing no extra jump at run time; for a jump edge the block is
// appended at the end of the layout and its trailing jump is flagged
// as jump-block overhead.
func splitEdge(f *ir.Func, e *ir.Edge, name string, body []*ir.Instr) (EdgeSplit, error) {
	from, to := e.From, e.To
	isJump := e.Kind == ir.Jump

	nb := &ir.Block{Name: name, Func: f}
	nb.Instrs = append(nb.Instrs, body...)
	j := &ir.Instr{Op: ir.OpJmp, Dst: ir.NoReg, Src1: ir.NoReg, Src2: ir.NoReg, Then: to}
	if isJump {
		j.Flags = ir.FlagJumpBlock
	}
	nb.Instrs = append(nb.Instrs, j)

	// Layout.
	if isJump {
		f.Blocks = append(f.Blocks, nb)
	} else {
		idx := -1
		for i, b := range f.Blocks {
			if b == from {
				idx = i
				break
			}
		}
		if idx < 0 {
			return EdgeSplit{}, fmt.Errorf("core.splitEdge: block %s not in layout", from.Name)
		}
		f.Blocks = append(f.Blocks, nil)
		copy(f.Blocks[idx+2:], f.Blocks[idx+1:])
		f.Blocks[idx+1] = nb
	}

	// Retarget the terminator of From.
	t := from.Terminator()
	if t == nil {
		return EdgeSplit{}, fmt.Errorf("core.splitEdge: block %s has no terminator", from.Name)
	}
	switch t.Op {
	case ir.OpJmp:
		if t.Then != to {
			return EdgeSplit{}, fmt.Errorf("core.splitEdge: jmp in %s does not target %s", from.Name, to.Name)
		}
		t.Then = nb
	case ir.OpBr:
		switch {
		case t.Then == to:
			t.Then = nb
		case t.Else == to:
			t.Else = nb
		default:
			return EdgeSplit{}, fmt.Errorf("core.splitEdge: br in %s does not target %s", from.Name, to.Name)
		}
	default:
		return EdgeSplit{}, fmt.Errorf("core.splitEdge: block %s ends in %v", from.Name, t.Op)
	}

	// Rewire CFG edges.
	w, kind := e.Weight, e.Kind
	f.RemoveEdge(e)
	e1 := f.AddEdge(from, nb, kind, w)
	k2 := ir.Jump
	if !isJump {
		k2 = ir.FallThrough
	}
	f.AddEdge(nb, to, k2, w)
	return EdgeSplit{OldEdge: e, FromEdge: e1}, nil
}
