package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Func is a procedure: a CFG of basic blocks in layout order.
type Func struct {
	Name   string
	Params []Reg // parameter registers, virtual before allocation

	// Blocks holds the basic blocks in layout (emission) order. The
	// layout order determines which edges are fall-through edges.
	Blocks []*Block
	Entry  *Block

	// NumVirt is one past the highest virtual register index used.
	NumVirt int

	// SpillSlots is the number of allocator spill slots in the frame.
	SpillSlots int
	// SaveSlots is the number of callee-saved save slots in the frame.
	SaveSlots int

	// EntryCount is the dynamic invocation count of the procedure,
	// recorded by profiling (the weight of the implicit entry edge).
	EntryCount int64

	// UsedCalleeSaved lists the callee-saved physical registers the
	// register allocation writes somewhere in the body; these are the
	// registers spill code placement must save and restore.
	UsedCalleeSaved []Reg

	nextBlockID int
}

// NewFunc returns an empty function with the given name.
func NewFunc(name string) *Func { return &Func{Name: name} }

// NewBlock appends a new empty block with the given name to the layout
// and returns it. The first block created becomes the entry.
func (f *Func) NewBlock(name string) *Block {
	if name == "" {
		name = fmt.Sprintf("b%d", f.nextBlockID)
	}
	b := &Block{ID: f.nextBlockID, Name: name, Func: f}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	if f.Entry == nil {
		f.Entry = b
	}
	return b
}

// NewVirt returns a fresh virtual register.
func (f *Func) NewVirt() Reg {
	r := Virt(f.NumVirt)
	f.NumVirt++
	return r
}

// AddEdge creates a control flow edge from->to of the given kind and
// weight and links it into both blocks' edge lists.
func (f *Func) AddEdge(from, to *Block, kind EdgeKind, weight int64) *Edge {
	e := &Edge{From: from, To: to, Kind: kind, Weight: weight}
	from.Succs = append(from.Succs, e)
	to.Preds = append(to.Preds, e)
	return e
}

// LinkEdges links every edge in edges into its endpoints' Succs and
// Preds, in order, as calling AddEdge for each would. Every block's
// lists, with the edges already on them, move into one allocation
// sized for all of them, so a caller that creates a function's edges
// in one slice builds its edge lists from two allocations. Block IDs
// must index f.Blocks.
func (f *Func) LinkEdges(edges []Edge) {
	if len(edges) == 0 {
		return
	}
	nb := len(f.Blocks)
	counts := make([]int, 2*nb)
	succs, preds := counts[:nb], counts[nb:]
	total := 2 * len(edges)
	for i, b := range f.Blocks {
		succs[i], preds[i] = len(b.Succs), len(b.Preds)
		total += len(b.Succs) + len(b.Preds)
	}
	for i := range edges {
		succs[edges[i].From.ID]++
		preds[edges[i].To.ID]++
	}
	lists := make([]*Edge, total)
	for i, b := range f.Blocks {
		if k := succs[i]; k > 0 {
			b.Succs, lists = append(lists[:0:k], b.Succs...), lists[k:]
		}
		if k := preds[i]; k > 0 {
			b.Preds, lists = append(lists[:0:k], b.Preds...), lists[k:]
		}
	}
	for i := range edges {
		e := &edges[i]
		e.From.Succs = append(e.From.Succs, e)
		e.To.Preds = append(e.To.Preds, e)
	}
}

// RemoveEdge unlinks e from both endpoint blocks.
func (f *Func) RemoveEdge(e *Edge) {
	e.From.Succs = removeEdge(e.From.Succs, e)
	e.To.Preds = removeEdge(e.To.Preds, e)
}

func removeEdge(list []*Edge, e *Edge) []*Edge {
	for i, x := range list {
		if x == e {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// Exits returns the blocks terminated by OpRet, in layout order.
func (f *Func) Exits() []*Block {
	var out []*Block
	for _, b := range f.Blocks {
		if b.IsExit() {
			out = append(out, b)
		}
	}
	return out
}

// Edges returns every control flow edge in a deterministic order
// (source layout position, then successor list position).
func (f *Func) Edges() []*Edge {
	var out []*Edge
	for _, b := range f.Blocks {
		out = append(out, b.Succs...)
	}
	return out
}

// RenumberBlocks reassigns dense block IDs following layout order.
// Passes that insert or delete blocks must call this before running
// analyses that index by block ID.
func (f *Func) RenumberBlocks() {
	for i, b := range f.Blocks {
		b.ID = i
	}
	f.nextBlockID = len(f.Blocks)
}

// BlockByName returns the named block, or nil.
func (f *Func) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// ClassifyEdges sets the Kind of every edge from the block layout,
// per the paper's definition: a jump edge is an edge whose target is
// not the next sequential instruction. So an edge is fall-through
// exactly when its target is the next block in layout order (a branch
// or jump to the next block executes as straight-line code), and a
// jump edge otherwise.
func (f *Func) ClassifyEdges() {
	for i, b := range f.Blocks {
		var next *Block
		if i+1 < len(f.Blocks) {
			next = f.Blocks[i+1]
		}
		for _, e := range b.Succs {
			if e.To == next {
				e.Kind = FallThrough
			} else {
				e.Kind = Jump
			}
		}
	}
}

// MaxFrameSlot returns the highest frame slot (Imm) any instruction
// with one of the two opcodes references, or -1 if none occurs. The
// passes that insert frame traffic use it to keep SpillSlots and
// SaveSlots exact — the VM sizes fixed, pooled frames from those
// counts, so they must cover every reference and carry no dead slots.
func (f *Func) MaxFrameSlot(a, b Op) int {
	maxSlot := -1
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if (in.Op == a || in.Op == b) && int(in.Imm) > maxSlot {
				maxSlot = int(in.Imm)
			}
		}
	}
	return maxSlot
}

// Instrs returns the total static instruction count.
func (f *Func) Instrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Clone returns a deep copy of the function. Instruction successor
// pointers and edges are remapped to the cloned blocks.
func (f *Func) Clone() *Func {
	nf := &Func{
		Name:        f.Name,
		Params:      append([]Reg(nil), f.Params...),
		NumVirt:     f.NumVirt,
		SpillSlots:  f.SpillSlots,
		SaveSlots:   f.SaveSlots,
		EntryCount:  f.EntryCount,
		nextBlockID: f.nextBlockID,
	}
	if f.UsedCalleeSaved != nil {
		nf.UsedCalleeSaved = append([]Reg(nil), f.UsedCalleeSaved...)
	}
	bmap := make(map[*Block]*Block, len(f.Blocks))
	for _, b := range f.Blocks {
		nb := &Block{ID: b.ID, Name: b.Name, Func: nf}
		bmap[b] = nb
		nf.Blocks = append(nf.Blocks, nb)
	}
	nf.Entry = bmap[f.Entry]
	for _, b := range f.Blocks {
		nb := bmap[b]
		for _, in := range b.Instrs {
			ci := in.Clone()
			if ci.Then != nil {
				ci.Then = bmap[ci.Then]
			}
			if ci.Else != nil {
				ci.Else = bmap[ci.Else]
			}
			nb.Instrs = append(nb.Instrs, ci)
		}
		for _, e := range b.Succs {
			nf.AddEdge(bmap[e.From], bmap[e.To], e.Kind, e.Weight)
		}
	}
	return nf
}

// String renders the function in the textual IR syntax.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.String())
	}
	b.WriteString(") {\n")
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s:", blk.Name)
		if len(blk.Preds) > 0 {
			names := make([]string, len(blk.Preds))
			for i, e := range blk.Preds {
				names[i] = e.From.Name
			}
			sort.Strings(names)
			fmt.Fprintf(&b, "  ; preds %s", strings.Join(names, " "))
		}
		b.WriteString("\n")
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "\t%s\n", in)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// Program is a set of functions with a designated entry point.
type Program struct {
	Funcs map[string]*Func
	Order []string // deterministic iteration order
	Main  string
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{Funcs: make(map[string]*Func)}
}

// Add registers a function, keeping deterministic order.
func (p *Program) Add(f *Func) {
	if _, ok := p.Funcs[f.Name]; !ok {
		p.Order = append(p.Order, f.Name)
	}
	p.Funcs[f.Name] = f
	if p.Main == "" {
		p.Main = f.Name
	}
}

// Func returns the named function, or nil.
func (p *Program) Func(name string) *Func { return p.Funcs[name] }

// FuncsInOrder returns the functions in registration order.
func (p *Program) FuncsInOrder() []*Func {
	out := make([]*Func, 0, len(p.Order))
	for _, name := range p.Order {
		out = append(out, p.Funcs[name])
	}
	return out
}

// Clone deep-copies the whole program.
func (p *Program) Clone() *Program {
	np := NewProgram()
	for _, f := range p.FuncsInOrder() {
		np.Add(f.Clone())
	}
	np.Main = p.Main
	return np
}

// String renders all functions.
func (p *Program) String() string {
	var b strings.Builder
	for i, f := range p.FuncsInOrder() {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(f.String())
	}
	return b.String()
}
