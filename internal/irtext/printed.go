package irtext

import "repro/internal/ir"

// The one-scan path: a line written exactly as Print writes it is read
// by one pass over its bytes, with no trimming, splitting or map of
// mnemonics, and its instruction is filled in place in the slab. The
// scan changes no parser state until the whole line has matched, so a
// line it does not recognise goes to parseLine unchanged. Whatever it
// accepts, parseLine would accept with the same result: it takes only
// names of [A-Za-z0-9_.], numbers written as strconv.AppendInt writes
// them (at most 18 digits), registers as Reg.AppendTo writes a valid
// one, single spaces where Print writes them, and flags in Print's
// order.
//
// The scanners take and return a byte offset into the source; -1 means
// no match, and every scanner given -1 returns -1, so a sequence of
// scans is checked once at its end.

// lineKind is the kind of a line the one-scan path read.
type lineKind uint8

const (
	startOfFile lineKind = iota // no line read yet
	mainLine                    // main NAME
	blankLine
	headerLine // func NAME(PARAMS) [entry=N] {
	labelLine  // NAME:
	instrLine  // a tab, then an instruction
	closeLine  // }
)

// printedNext[k] is the set of line kinds Print writes after a line of
// kind k: a main directive and one blank line only at the top, one
// blank line between functions, a label first in every function.
// Print ends its text with a closing brace.
var printedNext = [...]uint8{
	startOfFile: 1<<mainLine | 1<<headerLine,
	mainLine:    1 << blankLine,
	blankLine:   1 << headerLine,
	headerLine:  1 << labelLine,
	labelLine:   1<<instrLine | 1<<labelLine | 1<<closeLine,
	instrLine:   1<<instrLine | 1<<labelLine | 1<<closeLine,
	closeLine:   1 << blankLine,
}

// printedLine reads the line at src[pos:] if Print could have written
// it, and returns the offset after its newline and its kind. For any
// other line it returns next -1 and has changed nothing. A closing
// brace returns endFunc's error, which parseLine would report alike.
func (p *parser) printedLine(src string, pos int) (next int, kind lineKind, err error) {
	switch src[pos] {
	case '\t':
		return p.printedInstr(src, pos+1), instrLine, nil
	case '\n':
		return pos + 1, blankLine, nil
	case '}':
		if next = lit(src, pos+1, "\n"); next < 0 {
			return -1, 0, nil
		}
		return next, closeLine, p.endFunc()
	}
	if i := lit(src, pos, "func "); i >= 0 {
		return p.printedHeader(src, i), headerLine, nil
	}
	if i := lit(src, pos, "main "); i >= 0 {
		name, j := scanName(src, i)
		if next = lit(src, j, "\n"); next >= 0 {
			p.prog.Main, p.sawMain = name, true
		}
		return next, mainLine, nil
	}
	name, j := scanName(src, pos)
	if next = lit(src, j, ":\n"); next < 0 || p.f == nil {
		return -1, 0, nil
	}
	if _, dup := p.byName[name]; dup {
		return -1, 0, nil
	}
	p.byName[name] = p.newBlock(name)
	return next, labelLine, nil
}

// printedHeader reads "NAME(PARAMS) [entry=N] {" at src[i:], as
// AppendFunc writes it: no entry annotation for a zero count.
func (p *parser) printedHeader(src string, i int) int {
	if p.f != nil {
		return -1
	}
	name, i := scanName(src, i)
	i = lit(src, p.scanRegs(src, lit(src, i, "(")), ")")
	var entry int64
	if j := lit(src, i, " entry="); j >= 0 {
		if entry, i = scanInt(src, j); entry == 0 {
			return -1
		}
	}
	if i = lit(src, i, " {\n"); i < 0 {
		return -1
	}
	p.beginFunc(name)
	p.f.EntryCount = entry
	p.f.Params = p.takeRegs()
	return i
}

// printedInstr reads one instruction at src[i:], after its tab, as
// (*ir.Instr).AppendTo and appendInstr write it: edge weights on every
// jmp and br, flags in the order !spill, !sr, !jb.
func (p *parser) printedInstr(src string, i int) int {
	if p.cur == nil {
		return -1
	}
	dst := ir.NoReg
	if i+1 < len(src) && (src[i] == 'r' || src[i] == 'v') && isDigit(src[i+1]) {
		dst, i = scanReg(src, i)
		i = lit(src, i, " = ")
	}
	m, i := scanName(src, i)
	if i < 0 {
		return -1
	}
	op, ok := mnemonicOp(m)
	if !ok || op != ir.OpCall && (dst != ir.NoReg) != writesDst(op) {
		return -1
	}
	a, b := ir.NoReg, ir.NoReg
	var imm, w0, w1 int64
	var name, other string
	switch op {
	case ir.OpNop:
	case ir.OpConst, ir.OpSpillLoad, ir.OpRestore:
		imm, i = scanInt(src, lit(src, i, " "))
	case ir.OpMov, ir.OpNeg, ir.OpNot:
		a, i = scanReg(src, lit(src, i, " "))
	case ir.OpLoad:
		a, i = scanReg(src, lit(src, i, " "))
		imm, i = scanInt(src, lit(src, i, "+"))
	case ir.OpStore:
		a, i = scanReg(src, lit(src, i, " "))
		imm, i = scanInt(src, lit(src, i, "+"))
		b, i = scanReg(src, lit(src, i, ", "))
	case ir.OpSpillStore, ir.OpSave:
		imm, i = scanInt(src, lit(src, i, " "))
		a, i = scanReg(src, lit(src, i, ", "))
	case ir.OpCall:
		name, i = scanName(src, lit(src, i, " "))
		i = lit(src, p.scanRegs(src, lit(src, i, "(")), ")")
	case ir.OpRet:
		if j := lit(src, i, " "); j >= 0 && j < len(src) && src[j] != '!' {
			a, i = scanReg(src, j)
		}
	case ir.OpJmp:
		name, i = scanName(src, lit(src, i, " "))
		w0, i = scanInt(src, lit(src, i, " ; "))
	case ir.OpBr:
		a, i = scanReg(src, lit(src, i, " "))
		name, i = scanName(src, lit(src, i, ", "))
		other, i = scanName(src, lit(src, i, ", "))
		w0, i = scanInt(src, lit(src, i, " ; "))
		w1, i = scanInt(src, lit(src, i, " "))
	default: // binary
		a, i = scanReg(src, lit(src, i, " "))
		b, i = scanReg(src, lit(src, i, ", "))
	}
	var flags ir.InstrFlags
	if i >= 0 && i < len(src) && src[i] == ' ' {
		if j := lit(src, i, " !spill"); j >= 0 {
			flags, i = flags|ir.FlagSpill, j
		}
		if j := lit(src, i, " !sr"); j >= 0 {
			flags, i = flags|ir.FlagSaveRestore, j
		}
		if j := lit(src, i, " !jb"); j >= 0 {
			flags, i = flags|ir.FlagJumpBlock, j
		}
	}
	if i = lit(src, i, "\n"); i < 0 {
		return -1
	}

	in := p.instrs.next(instrChunk)
	in.Op, in.Dst, in.Src1, in.Src2, in.Imm, in.Flags = op, dst, a, b, imm, flags
	p.code = append(p.code, in)
	p.noteReg(dst)
	p.noteReg(a)
	p.noteReg(b)
	switch op {
	case ir.OpSpillLoad, ir.OpSpillStore:
		growSlots(&p.f.SpillSlots, imm)
	case ir.OpSave, ir.OpRestore:
		growSlots(&p.f.SaveSlots, imm)
	case ir.OpCall:
		in.Callee, in.Args = name, p.takeRegs()
	case ir.OpJmp:
		p.pending = append(p.pending, pendingEdge{from: p.cur, in: in, target: name, weight: w0})
	case ir.OpBr:
		p.pending = append(p.pending,
			pendingEdge{from: p.cur, in: in, target: name, weight: w0},
			pendingEdge{from: p.cur, in: in, isElse: true, target: other, weight: w1})
	}
	return i
}

// scanRegs reads a register list, "" or "REG, REG, ...", at src[i:]
// into p.args and returns the offset after it.
func (p *parser) scanRegs(src string, i int) int {
	p.args = p.args[:0]
	if lit(src, i, ")") >= 0 {
		return i
	}
	for i >= 0 {
		var r ir.Reg
		r, i = scanReg(src, i)
		p.args = append(p.args, r)
		j := lit(src, i, ", ")
		if j < 0 {
			break
		}
		i = j
	}
	return i
}

// takeRegs returns a copy of the list scanRegs read, nil when empty,
// and counts its virtual registers, as regList would.
func (p *parser) takeRegs() []ir.Reg {
	if len(p.args) == 0 {
		return nil
	}
	for _, r := range p.args {
		p.noteReg(r)
	}
	return append(make([]ir.Reg, 0, len(p.args)), p.args...)
}

// writesDst reports whether AppendTo writes op as "DST = ...". A call
// is written so only when it has a destination, and printedInstr
// checks calls apart.
func writesDst(op ir.Op) bool {
	switch op {
	case ir.OpNop, ir.OpStore, ir.OpSpillStore, ir.OpSave, ir.OpRet, ir.OpBr, ir.OpJmp:
		return false
	}
	return true
}

// mnemonicOp returns the opcode a mnemonic names, in one probe of
// mnemonics.
func mnemonicOp(m string) (ir.Op, bool) {
	if len(m) < 2 {
		return 0, false
	}
	e := &mnemonics[mnemonicSlot(m)]
	return e.op, e.name == m
}

// mnemonicSlot mixes a mnemonic's last two bytes and its length, which
// tell every opcode's mnemonic apart.
func mnemonicSlot(m string) int {
	return (7*int(m[len(m)-2]) + 11*int(m[len(m)-1]) + 2*len(m)) & 63
}

// mnemonics holds each opcode at its mnemonic's slot. Building it
// panics if two mnemonics share a slot, so a new opcode whose
// mnemonic collides fails every test of the package.
var mnemonics = func() (t [64]struct {
	name string
	op   ir.Op
}) {
	for op := ir.OpNop; op.Valid(); op++ {
		m := op.String()
		e := &t[mnemonicSlot(m)]
		if e.name != "" {
			panic("irtext: mnemonics " + e.name + " and " + m + " share a slot")
		}
		e.name, e.op = m, op
	}
	return t
}()

// noteReg counts a virtual register into the function's NumVirt, as
// reg does.
func (p *parser) noteReg(r ir.Reg) {
	if r.IsVirt() {
		p.virtMax = max(p.virtMax, r.VirtNum()+1)
	}
}

// lit returns the offset after s at src[i:], or -1.
func lit(src string, i int, s string) int {
	if i < 0 || len(src)-i < len(s) || src[i:i+len(s)] != s {
		return -1
	}
	return i + len(s)
}

// nameBytes are the bytes of a name the one-scan path reads.
var nameBytes = func() (t [256]bool) {
	for c := range t {
		t[c] = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || isDigit(byte(c)) || c == '_' || c == '.'
	}
	return t
}()

// scanName reads a non-empty name at src[i:] and returns it and the
// offset after it, or -1.
func scanName(src string, i int) (string, int) {
	if i < 0 {
		return "", -1
	}
	j := i
	for j < len(src) && nameBytes[src[j]] {
		j++
	}
	if j == i {
		return "", -1
	}
	return src[i:j], j
}

// scanDigits reads 1 to maxDigits decimal digits at src[i:], with no
// leading zero unless the number is 0, and returns their value and the
// offset after them, or -1.
func scanDigits(src string, i, maxDigits int) (int64, int) {
	if i < 0 || i >= len(src) {
		return 0, -1
	}
	n := int64(src[i]) - '0'
	if uint64(n) > 9 {
		return 0, -1
	}
	j := i + 1
	if n == 0 {
		if j < len(src) && isDigit(src[j]) {
			return 0, -1
		}
		return 0, j
	}
	for ; j < len(src); j++ {
		d := int64(src[j]) - '0'
		if uint64(d) > 9 {
			break
		}
		if j-i == maxDigits {
			return 0, -1
		}
		n = n*10 + d
	}
	return n, j
}

// scanInt reads a number as strconv.AppendInt writes it, of at most 18
// digits, so it cannot overflow.
func scanInt(src string, i int) (int64, int) {
	if j := lit(src, i, "-"); j >= 0 {
		n, k := scanDigits(src, j, 18)
		if n == 0 {
			return 0, -1 // "-0", or no digits
		}
		return -n, k
	}
	return scanDigits(src, i, 18)
}

// scanReg reads a register at src[i:] as Reg.AppendTo writes a valid
// one: rN below ir.VirtBase, or vN of at most nine digits, so that
// ir.Virt cannot overflow. Anything else, _ included, is -1.
func scanReg(src string, i int) (ir.Reg, int) {
	if i < 0 || i >= len(src) {
		return ir.NoReg, -1
	}
	c := src[i]
	if c != 'r' && c != 'v' {
		return ir.NoReg, -1
	}
	n, j := scanDigits(src, i+1, 9)
	switch {
	case j < 0:
	case c == 'v':
		return ir.VirtBase + ir.Reg(n), j
	case n < int64(ir.VirtBase):
		return ir.Reg(n), j
	}
	return ir.NoReg, -1
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
