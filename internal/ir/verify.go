package ir

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
)

// Verify checks structural consistency of the function's CFG and
// instruction stream. It returns a joined error describing every
// violation found, or nil.
//
// The invariants checked:
//   - block IDs are dense and match layout positions
//   - every block ends in exactly one terminator and has none earlier
//   - terminator targets agree with the successor edge list
//   - Preds/Succs lists are symmetric
//   - the entry block exists and has no predecessors
//   - every block is reachable from the entry
//   - edge weights are non-negative
//   - every spill/save slot reference fits the declared frame
//     (SpillSlots/SaveSlots), so frames never need to grow mid-run
func Verify(f *Func) error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("ir.Verify(%s): "+format, append([]any{f.Name}, args...)...))
	}

	if f.Entry == nil {
		fail("no entry block")
		return errors.Join(errs...)
	}
	if len(f.Entry.Preds) != 0 {
		fail("entry block %s has predecessors", f.Entry.Name)
	}

	// One slice holds a hash table of block names, then the
	// reachability walk's stack; one holds the duplicate-name marks,
	// then the reached marks.
	n := len(f.Blocks)
	size := 1 << bits.Len(uint(2*n)) // a power of two above 2n
	ints := make([]int32, size+n)
	marks := make([]bool, 2*n)
	dup, reached := marks[:n], marks[n:]
	markDuplicateNames(f.Blocks, ints[:size], dup)
	dense := true
	for i, b := range f.Blocks {
		if b.ID != i {
			fail("block %s has ID %d at layout position %d (call RenumberBlocks)", b.Name, b.ID, i)
			dense = false
		}
		if b.Func != f {
			fail("block %s belongs to a different function", b.Name)
		}
		if dup[i] {
			fail("duplicate block name %s", b.Name)
		}

		// Terminator discipline.
		if len(b.Instrs) == 0 {
			fail("block %s is empty", b.Name)
			continue
		}
		for j, in := range b.Instrs {
			if in.Op.IsTerminator() && j != len(b.Instrs)-1 {
				fail("block %s has terminator %v at non-final position %d", b.Name, in.Op, j)
			}
			// Frame slot discipline: the VM sizes frames from the
			// declared slot counts once per call, so every reference
			// must fit.
			switch in.Op {
			case OpSpillLoad, OpSpillStore:
				if in.Imm < 0 || in.Imm >= int64(f.SpillSlots) {
					fail("block %s: %v references spill slot %d outside the declared frame (SpillSlots=%d)",
						b.Name, in.Op, in.Imm, f.SpillSlots)
				}
			case OpSave, OpRestore:
				if in.Imm < 0 || in.Imm >= int64(f.SaveSlots) {
					fail("block %s: %v references save slot %d outside the declared frame (SaveSlots=%d)",
						b.Name, in.Op, in.Imm, f.SaveSlots)
				}
			}
		}
		t := b.Terminator()
		if t == nil {
			fail("block %s does not end in a terminator", b.Name)
			continue
		}
		switch t.Op {
		case OpRet:
			if len(b.Succs) != 0 {
				fail("ret block %s has %d successors", b.Name, len(b.Succs))
			}
		case OpJmp:
			if len(b.Succs) != 1 {
				fail("jmp block %s has %d successors, want 1", b.Name, len(b.Succs))
			} else if b.Succs[0].To != t.Then {
				fail("jmp block %s edge targets %s but instruction targets %s",
					b.Name, b.Succs[0].To.Name, blockName(t.Then))
			}
		case OpBr:
			if len(b.Succs) != 2 {
				fail("br block %s has %d successors, want 2", b.Name, len(b.Succs))
			} else {
				if b.SuccEdge(t.Then) == nil {
					fail("br block %s missing edge to then-target %s", b.Name, blockName(t.Then))
				}
				if b.SuccEdge(t.Else) == nil {
					fail("br block %s missing edge to else-target %s", b.Name, blockName(t.Else))
				}
				if t.Then == t.Else {
					fail("br block %s has identical then/else targets", b.Name)
				}
			}
		}

		// Edge symmetry and weights.
		for _, e := range b.Succs {
			if e.From != b {
				fail("edge %v in %s.Succs has From=%s", e, b.Name, e.From.Name)
			}
			if e.Weight < 0 {
				fail("edge %v has negative weight", e)
			}
			if !containsEdge(e.To.Preds, e) {
				fail("edge %v missing from %s.Preds", e, e.To.Name)
			}
		}
		for _, e := range b.Preds {
			if e.To != b {
				fail("edge %v in %s.Preds has To=%s", e, b.Name, e.To.Name)
			}
			if !containsEdge(e.From.Succs, e) {
				fail("edge %v missing from %s.Succs", e, e.From.Name)
			}
		}
	}

	// Reachability, marked by block ID when IDs are dense and the walk
	// stays among f's blocks, else by block pointer.
	if dense && reachByID(f, ints[size:], reached) {
		for i, b := range f.Blocks {
			if !reached[i] {
				fail("block %s is unreachable from entry", b.Name)
			}
		}
	} else {
		reachedBy := reachByPointer(f)
		for _, b := range f.Blocks {
			if !reachedBy[b] {
				fail("block %s is unreachable from entry", b.Name)
			}
		}
	}

	return errors.Join(errs...)
}

// nameSeed seeds the hash of markDuplicateNames' table; which seed
// does not matter.
var nameSeed = maphash.MakeSeed()

// markDuplicateNames sets dup[i] when a block before blocks[i] in
// layout order has its name. table is a zeroed open-addressing table
// whose length is a power of two above 2*len(blocks); it keeps the
// position plus one of each name's first block.
func markDuplicateNames(blocks []*Block, table []int32, dup []bool) {
	mask := uint64(len(table) - 1)
	for i, b := range blocks {
		for j := maphash.String(nameSeed, b.Name) & mask; ; j = (j + 1) & mask {
			k := table[j]
			if k == 0 {
				table[j] = int32(i + 1)
				break
			}
			if blocks[k-1].Name == b.Name {
				dup[i] = true
				break
			}
		}
	}
}

// reachByID marks in reached, by ID, the blocks the entry reaches,
// using stack (with room for every block) for the walk. It gives up
// and reports false when it meets a block that is not f.Blocks[its
// ID].
func reachByID(f *Func, stack []int32, reached []bool) bool {
	own := func(b *Block) bool { return uint(b.ID) < uint(len(f.Blocks)) && f.Blocks[b.ID] == b }
	if !own(f.Entry) {
		return false
	}
	reached[f.Entry.ID] = true
	stack = append(stack[:0], int32(f.Entry.ID))
	for len(stack) > 0 {
		b := f.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		for _, e := range b.Succs {
			if !own(e.To) {
				return false
			}
			if !reached[e.To.ID] {
				reached[e.To.ID] = true
				stack = append(stack, int32(e.To.ID))
			}
		}
	}
	return true
}

// reachByPointer returns the set of blocks the entry reaches, whatever
// their IDs and wherever they live.
func reachByPointer(f *Func) map[*Block]bool {
	reached := map[*Block]bool{f.Entry: true}
	stack := []*Block{f.Entry}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range b.Succs {
			if !reached[e.To] {
				reached[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return reached
}

func containsEdge(list []*Edge, e *Edge) bool {
	for _, x := range list {
		if x == e {
			return true
		}
	}
	return false
}

// VerifyProgram verifies every function and checks cross-function
// references: every OpCall names a function defined in the program and
// passes the arity it declares.
func VerifyProgram(p *Program) error {
	var errs []error
	if p.Main == "" || p.Funcs[p.Main] == nil {
		errs = append(errs, fmt.Errorf("ir.VerifyProgram: main function %q not defined", p.Main))
	}
	for _, f := range p.FuncsInOrder() {
		if err := Verify(f); err != nil {
			errs = append(errs, err)
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != OpCall {
					continue
				}
				callee := p.Funcs[in.Callee]
				if callee == nil {
					errs = append(errs, fmt.Errorf("ir.VerifyProgram: %s calls undefined %q", f.Name, in.Callee))
					continue
				}
				if len(in.Args) != len(callee.Params) {
					errs = append(errs, fmt.Errorf("ir.VerifyProgram: %s calls %s with %d args, want %d",
						f.Name, in.Callee, len(in.Args), len(callee.Params)))
				}
			}
		}
	}
	return errors.Join(errs...)
}
