package irtext

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/ir"
)

// Parse reads a program in the textual IR format. The first function
// is the program's main unless a "main NAME" directive appears.
//
// The parser builds each function from a few slab allocations:
// instructions and blocks come from fixed-size chunks shared by the
// whole program, every block's Instrs is a capped window of one
// per-function pointer slice, and a function's edges and its Succs and
// Preds lists are carved from one allocation each. Labels and branch
// targets resolve through a per-function name map, so parse time is
// linear in the number of blocks.
//
// A line written exactly as Print writes it is read in one scan of its
// bytes (printed.go); any other line, such as a comment, other spacing
// or a malformed line, goes through the general line handler, which
// accepts the same language and reports the errors.
func Parse(src string) (*ir.Program, error) {
	prog, _, err := ParseCanonical(src)
	return prog, err
}

// ParseCanonical is Parse that also reports whether src is canonical:
// every line and the file's layout exactly as Print writes them, so
// that Print(prog) == src byte for byte. A text that differs only in
// comments, spacing, line endings or number spelling parses to the
// same program but is not canonical. A false result never claims the
// texts differ: spellings the one-scan path leaves to the general
// handler (names outside [A-Za-z0-9_.], numbers of 19 digits, _ for a
// register) may still print back unchanged.
func ParseCanonical(src string) (prog *ir.Program, canonical bool, err error) {
	p := &parser{prog: ir.NewProgram(), canonical: true}
	if err := p.run(src); err != nil {
		return nil, false, err
	}
	if err := ir.VerifyProgram(p.prog); err != nil {
		return nil, false, fmt.Errorf("irtext: parsed program invalid: %w", err)
	}
	return p.prog, p.canonical, nil
}

// Slab chunk sizes: how many values one allocation holds.
const (
	instrChunk = 128
	blockChunk = 32
)

// slab hands out values from fixed-size chunks, so one allocation
// holds many of them. A chunk stays alive while any value in it does.
type slab[T any] struct{ chunk []T }

// next returns a pointer to a fresh zero value.
func (s *slab[T]) next(size int) *T {
	if len(s.chunk) == cap(s.chunk) {
		s.chunk = make([]T, 0, size)
	}
	s.chunk = s.chunk[:len(s.chunk)+1]
	return &s.chunk[len(s.chunk)-1]
}

// pendingEdge is a jmp or br target, recorded by name until the
// function's closing brace, when every block exists.
type pendingEdge struct {
	from   *ir.Block
	in     *ir.Instr // the branch; its Then or Else gets the target
	isElse bool
	target string
	weight int64
	to     *ir.Block // resolved at the closing brace
}

type parser struct {
	prog *ir.Program
	line int

	instrs slab[ir.Instr]
	blocks slab[ir.Block]

	// The function being parsed. The buffers are reused from function
	// to function; endFunc copies what the function keeps.
	f       *ir.Func
	cur     *ir.Block
	byName  map[string]*ir.Block // first block of each name, as BlockByName finds it
	layout  []*ir.Block
	code    []*ir.Instr // instructions in layout order
	starts  []int       // starts[i] indexes block i's first instruction in code
	pending []pendingEdge
	virtMax int
	args    []ir.Reg // a call's arguments while its line is scanned

	// Layout of the source so far, for ParseCanonical: whether every
	// line was read as Print writes it, in an order Print writes, the
	// kind of the last line, the functions closed, and whether a main
	// directive opened the file.
	canonical bool
	last      lineKind
	funcs     int
	sawMain   bool
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("irtext: line %d: "+format, append([]any{p.line}, args...)...)
}

func (p *parser) run(src string) error {
	for pos := 0; ; {
		p.line++
		if pos == len(src) {
			break // the empty line after a final newline
		}
		next, kind, err := p.printedLine(src, pos)
		if err != nil {
			return err
		}
		if next >= 0 {
			if printedNext[p.last]&(1<<kind) == 0 {
				p.canonical = false
			}
			p.last, pos = kind, next
			continue
		}
		p.canonical = false
		line := src[pos:]
		i := strings.IndexByte(line, '\n')
		if i >= 0 {
			line = line[:i]
		}
		if err := p.parseLine(line); err != nil {
			return err
		}
		if i < 0 {
			break
		}
		pos += i + 1
	}
	if p.f != nil {
		return p.errf("unexpected end of input inside func %s", p.f.Name)
	}
	// Print writes one function per name, and a main directive only
	// when main is not the first function.
	if p.last != closeLine || p.funcs != len(p.prog.Order) ||
		p.sawMain && p.prog.Main == p.prog.Order[0] {
		p.canonical = false
	}
	return nil
}

func (p *parser) parseLine(line string) error {
	// Strip full-line comments that aren't terminator weights: the
	// '; ' annotations are handled inside instruction parsing, so
	// only '#' comments are stripped here.
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	line = strings.TrimSpace(line)
	switch {
	case line == "":
	case strings.HasPrefix(line, "main "):
		p.prog.Main = strings.TrimSpace(strings.TrimPrefix(line, "main "))
	case strings.HasPrefix(line, "func "):
		return p.startFunc(line)
	case line == "}":
		return p.endFunc()
	case strings.HasSuffix(line, ":"):
		if p.f == nil {
			return p.errf("label outside function")
		}
		name := strings.TrimSuffix(line, ":")
		if _, dup := p.byName[name]; dup {
			return p.errf("duplicate block %q", name)
		}
		// An empty name becomes b<ID>, as Func.NewBlock names it, and
		// may repeat an earlier label; the first block of a name wins.
		if name == "" {
			name = "b" + strconv.Itoa(len(p.layout))
		}
		if b := p.newBlock(name); p.byName[name] == nil {
			p.byName[name] = b
		}
	default:
		if p.f == nil || p.cur == nil {
			return p.errf("instruction outside block")
		}
		return p.instr(line)
	}
	return nil
}

// newBlock starts a block at the end of the current function's layout
// and returns it; the caller enters it in the name map.
func (p *parser) newBlock(name string) *ir.Block {
	b := p.blocks.next(blockChunk)
	b.ID, b.Name, b.Func = len(p.layout), name, p.f
	p.layout = append(p.layout, b)
	p.starts = append(p.starts, len(p.code))
	p.cur = b
	return b
}

func (p *parser) startFunc(line string) error {
	if p.f != nil {
		return p.errf("nested func")
	}
	rest := strings.TrimPrefix(line, "func ")
	open := strings.IndexByte(rest, '(')
	close_ := strings.IndexByte(rest, ')')
	if open < 0 || close_ < open || !strings.HasSuffix(rest, "{") {
		return p.errf("malformed func header %q", line)
	}
	name := strings.TrimSpace(rest[:open])
	if name == "" {
		return p.errf("func missing name")
	}
	p.beginFunc(name)
	if params := strings.TrimSpace(rest[open+1 : close_]); params != "" {
		regs, err := p.regList(params)
		if err != nil {
			return err
		}
		p.f.Params = regs
	}
	tail := strings.TrimSpace(rest[close_+1 : len(rest)-1])
	if tail != "" {
		if !strings.HasPrefix(tail, "entry=") {
			return p.errf("unexpected func annotation %q", tail)
		}
		n, err := strconv.ParseInt(strings.TrimPrefix(tail, "entry="), 10, 64)
		if err != nil {
			return p.errf("bad entry count: %v", err)
		}
		p.f.EntryCount = n
	}
	return nil
}

// reuseLabels is the most labels a function's name map may have held
// for the next function to reuse it.
const reuseLabels = 64

// beginFunc starts a function named name.
func (p *parser) beginFunc(name string) {
	p.f = ir.NewFunc(name)
	p.virtMax = 0
	// Clearing a map costs its capacity, which the largest function it
	// held set, so only a map that stayed small is reused.
	if p.byName == nil || len(p.byName) > reuseLabels {
		p.byName = make(map[string]*ir.Block)
	} else {
		clear(p.byName)
	}
}

func (p *parser) endFunc() error {
	if p.f == nil {
		return p.errf("unmatched }")
	}
	f := p.f
	// Resolve every branch target first, so an unknown one is reported
	// before anything is linked.
	for i := range p.pending {
		pe := &p.pending[i]
		if pe.to = p.byName[pe.target]; pe.to == nil {
			return p.errf("func %s: branch to unknown block %q", f.Name, pe.target)
		}
	}
	if len(p.layout) > 0 {
		f.Blocks = append(make([]*ir.Block, 0, len(p.layout)), p.layout...)
		f.Entry = f.Blocks[0]
	}
	p.carveInstrs(f)
	p.linkEdges(f)
	f.NumVirt = p.virtMax
	f.RenumberBlocks()
	f.ClassifyEdges()
	p.prog.Add(f)
	p.funcs++
	p.f, p.cur = nil, nil
	p.layout, p.code, p.starts, p.pending = p.layout[:0], p.code[:0], p.starts[:0], p.pending[:0]
	return nil
}

// carveInstrs copies the function's instruction pointers into one
// slice and gives each block its capped window of it, so an insertion
// into one block reallocates that block's list instead of overwriting
// the next block's.
func (p *parser) carveInstrs(f *ir.Func) {
	if len(p.code) == 0 {
		return
	}
	code := append(make([]*ir.Instr, 0, len(p.code)), p.code...)
	for i, b := range f.Blocks {
		end := len(code)
		if i+1 < len(p.starts) {
			end = p.starts[i+1]
		}
		if start := p.starts[i]; start < end {
			b.Instrs = code[start:end:end]
		}
	}
}

// linkEdges creates the function's edges in one allocation, links
// them in source order, and points each branch at its resolved target.
func (p *parser) linkEdges(f *ir.Func) {
	if len(p.pending) == 0 {
		return
	}
	edges := make([]ir.Edge, len(p.pending))
	for i, pe := range p.pending {
		edges[i] = ir.Edge{From: pe.from, To: pe.to, Kind: ir.Jump, Weight: pe.weight}
		if pe.isElse {
			pe.in.Else = pe.to
		} else {
			pe.in.Then = pe.to
		}
	}
	f.LinkEdges(edges)
}

// reg parses rN or vN or _.
func (p *parser) reg(s string) (ir.Reg, error) {
	if s == "_" {
		return ir.NoReg, nil
	}
	if len(s) < 2 {
		return ir.NoReg, p.errf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 {
		return ir.NoReg, p.errf("bad register %q", s)
	}
	switch s[0] {
	case 'r':
		if n >= int(ir.VirtBase) {
			return ir.NoReg, p.errf("physical register %q out of range", s)
		}
		return ir.Phys(n), nil
	case 'v':
		if n+1 > p.virtMax {
			p.virtMax = n + 1
		}
		return ir.Virt(n), nil
	}
	return ir.NoReg, p.errf("bad register %q", s)
}

// regList parses a comma-separated register list.
func (p *parser) regList(s string) ([]ir.Reg, error) {
	regs := make([]ir.Reg, 0, strings.Count(s, ",")+1)
	for more := true; more; {
		var rs string
		rs, s, more = strings.Cut(s, ",")
		r, err := p.reg(strings.TrimSpace(rs))
		if err != nil {
			return nil, err
		}
		regs = append(regs, r)
	}
	return regs, nil
}

// emit appends in, with the given flags, to the current block and
// returns its place in the instruction slab.
func (p *parser) emit(in ir.Instr, flags ir.InstrFlags) *ir.Instr {
	slot := p.instrs.next(instrChunk)
	*slot = in
	slot.Flags = flags
	p.code = append(p.code, slot)
	return slot
}

// instr parses one instruction line.
func (p *parser) instr(line string) error {
	// Flags.
	var flags ir.InstrFlags
	for {
		switch {
		case strings.HasSuffix(line, "!spill"):
			flags |= ir.FlagSpill
			line = strings.TrimSpace(strings.TrimSuffix(line, "!spill"))
			continue
		case strings.HasSuffix(line, "!sr"):
			flags |= ir.FlagSaveRestore
			line = strings.TrimSpace(strings.TrimSuffix(line, "!sr"))
			continue
		case strings.HasSuffix(line, "!jb"):
			flags |= ir.FlagJumpBlock
			line = strings.TrimSpace(strings.TrimSuffix(line, "!jb"))
			continue
		}
		break
	}
	// Terminator weights after ';'. Every field must parse; jmp reads
	// the first and br the first two.
	var weights int
	var w [2]int64
	if i := strings.IndexByte(line, ';'); i >= 0 {
		for rest := line[i+1:]; ; {
			var ws string
			if ws, rest = nextField(rest); ws == "" {
				break
			}
			n, err := strconv.ParseInt(ws, 10, 64)
			if err != nil {
				return p.errf("bad weight %q", ws)
			}
			if weights < len(w) {
				w[weights] = n
			}
			weights++
		}
		line = strings.TrimSpace(line[:i])
	}

	// Destination form: "X = rest".
	if eq := strings.Index(line, " = "); eq >= 0 {
		dst, err := p.reg(strings.TrimSpace(line[:eq]))
		if err != nil {
			return err
		}
		op, args := splitOp(strings.TrimSpace(line[eq+3:]))
		switch op {
		case "const":
			n, err := strconv.ParseInt(args, 10, 64)
			if err != nil {
				return p.errf("bad const %q", args)
			}
			p.emit(ir.Instr{Op: ir.OpConst, Dst: dst, Src1: ir.NoReg, Src2: ir.NoReg, Imm: n}, flags)
		case "mov", "neg", "not":
			s, err := p.reg(args)
			if err != nil {
				return err
			}
			o := ir.OpMov
			switch op {
			case "neg":
				o = ir.OpNeg
			case "not":
				o = ir.OpNot
			}
			p.emit(ir.Instr{Op: o, Dst: dst, Src1: s, Src2: ir.NoReg}, flags)
		case "load":
			base, off, err := p.addr(args)
			if err != nil {
				return err
			}
			p.emit(ir.Instr{Op: ir.OpLoad, Dst: dst, Src1: base, Src2: ir.NoReg, Imm: off}, flags)
		case "spill.ld", "restore":
			n, err := strconv.ParseInt(args, 10, 64)
			if err != nil {
				return p.errf("bad slot %q", args)
			}
			o, slots := ir.OpSpillLoad, &p.f.SpillSlots
			if op == "restore" {
				o, slots = ir.OpRestore, &p.f.SaveSlots
			}
			growSlots(slots, n)
			p.emit(ir.Instr{Op: o, Dst: dst, Src1: ir.NoReg, Src2: ir.NoReg, Imm: n}, flags)
		case "call":
			return p.call(dst, args, flags)
		default:
			o, ok := mnemonicOp(op)
			if !ok || !o.IsBinary() {
				return p.errf("unknown op %q", op)
			}
			if strings.Count(args, ",") != 1 {
				return p.errf("binary op needs 2 operands: %q", line)
			}
			as, bs, _ := strings.Cut(args, ",")
			a, err := p.reg(strings.TrimSpace(as))
			if err != nil {
				return err
			}
			b, err := p.reg(strings.TrimSpace(bs))
			if err != nil {
				return err
			}
			p.emit(ir.Instr{Op: o, Dst: dst, Src1: a, Src2: b}, flags)
		}
		return nil
	}

	op, args := splitOp(line)
	switch op {
	case "nop":
		p.emit(ir.Instr{Op: ir.OpNop, Dst: ir.NoReg, Src1: ir.NoReg, Src2: ir.NoReg}, flags)
	case "store":
		if strings.Count(args, ",") != 1 {
			return p.errf("store needs addr, value: %q", line)
		}
		as, vs, _ := strings.Cut(args, ",")
		base, off, err := p.addr(strings.TrimSpace(as))
		if err != nil {
			return err
		}
		v, err := p.reg(strings.TrimSpace(vs))
		if err != nil {
			return err
		}
		p.emit(ir.Instr{Op: ir.OpStore, Dst: ir.NoReg, Src1: base, Src2: v, Imm: off}, flags)
	case "spill.st", "save":
		if strings.Count(args, ",") != 1 {
			return p.errf("%s needs slot, reg: %q", op, line)
		}
		ns, rs, _ := strings.Cut(args, ",")
		n, err := strconv.ParseInt(strings.TrimSpace(ns), 10, 64)
		if err != nil {
			return p.errf("bad slot %q", ns)
		}
		r, err := p.reg(strings.TrimSpace(rs))
		if err != nil {
			return err
		}
		o, slots := ir.OpSpillStore, &p.f.SpillSlots
		if op == "save" {
			o, slots = ir.OpSave, &p.f.SaveSlots
		}
		growSlots(slots, n)
		p.emit(ir.Instr{Op: o, Dst: ir.NoReg, Src1: r, Src2: ir.NoReg, Imm: n}, flags)
	case "call":
		return p.call(ir.NoReg, args, flags)
	case "ret":
		src := ir.NoReg
		if args != "" {
			r, err := p.reg(args)
			if err != nil {
				return err
			}
			src = r
		}
		p.emit(ir.Instr{Op: ir.OpRet, Dst: ir.NoReg, Src1: src, Src2: ir.NoReg}, flags)
	case "jmp":
		if weights > 1 {
			return p.errf("jmp takes one weight")
		}
		in := p.emit(ir.Instr{Op: ir.OpJmp, Dst: ir.NoReg, Src1: ir.NoReg, Src2: ir.NoReg}, flags)
		p.pending = append(p.pending, pendingEdge{from: p.cur, in: in, target: args, weight: w[0]})
	case "br":
		if strings.Count(args, ",") != 2 {
			return p.errf("br needs cond, then, else: %q", line)
		}
		cs, rest, _ := strings.Cut(args, ",")
		ts, es, _ := strings.Cut(rest, ",")
		c, err := p.reg(strings.TrimSpace(cs))
		if err != nil {
			return err
		}
		in := p.emit(ir.Instr{Op: ir.OpBr, Dst: ir.NoReg, Src1: c, Src2: ir.NoReg}, flags)
		p.pending = append(p.pending,
			pendingEdge{from: p.cur, in: in, target: strings.TrimSpace(ts), weight: w[0]},
			pendingEdge{from: p.cur, in: in, isElse: true, target: strings.TrimSpace(es), weight: w[1]})
	default:
		return p.errf("unknown instruction %q", line)
	}
	return nil
}

// growSlots makes a frame's slot count cover slot n.
func growSlots(slots *int, n int64) {
	if int(n)+1 > *slots {
		*slots = int(n) + 1
	}
}

// call parses "name(a, b, ...)".
func (p *parser) call(dst ir.Reg, args string, flags ir.InstrFlags) error {
	open := strings.IndexByte(args, '(')
	if open < 0 || !strings.HasSuffix(args, ")") {
		return p.errf("malformed call %q", args)
	}
	in := ir.Instr{Op: ir.OpCall, Dst: dst, Src1: ir.NoReg, Src2: ir.NoReg, Callee: strings.TrimSpace(args[:open])}
	if argList := strings.TrimSpace(args[open+1 : len(args)-1]); argList != "" {
		regs, err := p.regList(argList)
		if err != nil {
			return err
		}
		in.Args = regs
	}
	p.emit(in, flags)
	return nil
}

// addr parses "reg+off" or "reg".
func (p *parser) addr(s string) (ir.Reg, int64, error) {
	if i := strings.IndexByte(s, '+'); i >= 0 {
		r, err := p.reg(strings.TrimSpace(s[:i]))
		if err != nil {
			return ir.NoReg, 0, err
		}
		off, err := strconv.ParseInt(strings.TrimSpace(s[i+1:]), 10, 64)
		if err != nil {
			return ir.NoReg, 0, p.errf("bad offset in %q", s)
		}
		return r, off, nil
	}
	r, err := p.reg(strings.TrimSpace(s))
	return r, 0, err
}

// splitOp splits s at its first space or tab into the mnemonic and
// its trimmed operands.
func splitOp(s string) (op, args string) {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return s[:i], strings.TrimSpace(s[i+1:])
		}
	}
	return s, ""
}

// nextField returns the first field of s as strings.Fields splits it
// (Unicode white space separates fields) and the text after it, or ""
// when s holds no field.
func nextField(s string) (field, rest string) {
	start := strings.IndexFunc(s, isNotSpace)
	if start < 0 {
		return "", ""
	}
	s = s[start:]
	end := strings.IndexFunc(s, unicode.IsSpace)
	if end < 0 {
		return s, ""
	}
	return s[:end], s[end:]
}

func isNotSpace(r rune) bool { return !unicode.IsSpace(r) }
