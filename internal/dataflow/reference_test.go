package dataflow_test

// Differential tests: the path-exploration solver against the
// iterative bit-vector fixpoint it replaced, kept here as the
// reference. Both must agree on every block's live-in and live-out set
// on generated programs before and after allocation, on every testdata
// program, and on hand-built CFGs with an unreachable block and an
// irreducible loop.

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/vm"
)

// bitSet is the reference solver's fixed-width register set.
type bitSet []uint64

func newBitSet(n int) bitSet    { return make(bitSet, (n+63)/64) }
func (s bitSet) set(i int)      { s[i/64] |= 1 << (uint(i) % 64) }
func (s bitSet) has(i int) bool { return s[i/64]&(1<<(uint(i)%64)) != 0 }
func (s bitSet) subtract(t bitSet) {
	for i, w := range t {
		s[i] &^= w
	}
}

// union adds t's registers to s and reports whether s changed.
func (s bitSet) union(t bitSet) bool {
	changed := false
	for i, w := range t {
		if nw := s[i] | w; nw != s[i] {
			s[i], changed = nw, true
		}
	}
	return changed
}

// regs lists the set's registers in ascending order.
func (s bitSet) regs() []ir.Reg {
	var out []ir.Reg
	for i := 0; i < len(s)*64; i++ {
		if s.has(i) {
			out = append(out, ir.Reg(i))
		}
	}
	return out
}

// referenceLiveness is the bit-vector fixpoint: per-block use and def
// sets over the whole register universe, iterated in postorder of the
// blocks the entry reaches until nothing changes.
func referenceLiveness(f *ir.Func) (in, out []bitSet) {
	n := int(ir.VirtBase) + f.NumVirt
	nb := len(f.Blocks)
	in, out = make([]bitSet, nb), make([]bitSet, nb)
	use, def := make([]bitSet, nb), make([]bitSet, nb)
	for _, b := range f.Blocks {
		in[b.ID], out[b.ID] = newBitSet(n), newBitSet(n)
		use[b.ID], def[b.ID] = newBitSet(n), newBitSet(n)
		var buf []ir.Reg
		for _, ins := range b.Instrs {
			for _, u := range ins.Uses(buf[:0]) {
				if !def[b.ID].has(int(u)) {
					use[b.ID].set(int(u))
				}
			}
			if d := ins.Def(); d.IsValid() {
				def[b.ID].set(int(d))
			}
		}
	}
	seen := make([]bool, nb)
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		seen[b.ID] = true
		for _, e := range b.Succs {
			if !seen[e.To.ID] {
				dfs(e.To)
			}
		}
		post = append(post, b)
	}
	dfs(f.Entry)
	tmp := newBitSet(n)
	for changed := true; changed; {
		changed = false
		for _, b := range post {
			for _, e := range b.Succs {
				if out[b.ID].union(in[e.To.ID]) {
					changed = true
				}
			}
			copy(tmp, out[b.ID])
			tmp.subtract(def[b.ID])
			tmp.union(use[b.ID])
			if !slices.Equal(tmp, in[b.ID]) {
				copy(in[b.ID], tmp)
				changed = true
			}
		}
	}
	return in, out
}

// checkReference fails unless lv holds the reference solution for f.
func checkReference(t *testing.T, tag string, f *ir.Func, lv *dataflow.Liveness) {
	t.Helper()
	in, out := referenceLiveness(f)
	if lv.Blocks() != len(in) {
		t.Fatalf("%s: liveness covers %d blocks, want %d", tag, lv.Blocks(), len(in))
	}
	for _, b := range f.Blocks {
		if got, want := lv.In(b.ID), in[b.ID].regs(); !slices.Equal(got, want) {
			t.Fatalf("%s: block %s live-in = %v, reference %v", tag, b.Name, got, want)
		}
		if got, want := lv.Out(b.ID), out[b.ID].regs(); !slices.Equal(got, want) {
			t.Fatalf("%s: block %s live-out = %v, reference %v", tag, b.Name, got, want)
		}
	}
}

var families = []struct {
	name string
	cfg  irgen.Config
}{
	{"default", irgen.Default()},
	{"small", irgen.Small()},
	{"hostile", irgen.Hostile()},
	{"crossover", irgen.Crossover()},
}

// profiled generates seed under cfg and profiles it on argument 5.
func profiled(t testing.TB, seed uint64, cfg irgen.Config) *ir.Program {
	t.Helper()
	p := irgen.Generate(seed, cfg)
	if _, err := profile.Collect(p, vm.Config{MaxSteps: 1 << 24}, 5); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return p
}

func TestLivenessMatchesReferenceGenerated(t *testing.T) {
	seeds := uint64(150)
	if testing.Short() {
		seeds = 20
	}
	m := machine.PARISC()
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			for seed := uint64(1); seed <= seeds; seed++ {
				p := profiled(t, seed, fam.cfg)
				for _, f := range p.FuncsInOrder() {
					checkReference(t, fmt.Sprintf("seed %d %s before allocation", seed, f.Name), f, dataflow.ComputeLiveness(f))
				}
				if _, err := regalloc.AllocateProgram(p, m, 1, regalloc.Options{}); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				for _, f := range p.FuncsInOrder() {
					checkReference(t, fmt.Sprintf("seed %d %s after allocation", seed, f.Name), f, dataflow.ComputeLiveness(f))
				}
			}
		})
	}
}

func TestLivenessMatchesReferenceTestdata(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		p, err := irtext.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, f := range p.FuncsInOrder() {
			checkReference(t, filepath.Base(file)+" "+f.Name, f, dataflow.ComputeLiveness(f))
		}
	}
}

// TestLivenessHandBuiltCFGs covers the shapes generated programs
// rarely have: a block the entry cannot reach (its sets stay empty,
// and its reads must not leak into its reachable successor's
// predecessors), and an irreducible loop entered at two blocks.
func TestLivenessHandBuiltCFGs(t *testing.T) {
	t.Run("unreachable", func(t *testing.T) {
		// entry: v0=1; v1=2; jmp join
		// dead:  v2=v1+v0; jmp join      (no predecessor)
		// join:  v3=v0+v1; ret v3
		bu := ir.NewBuilder("unreach", 0)
		entry := bu.Block("entry")
		dead := bu.F.NewBlock("dead")
		join := bu.F.NewBlock("join")
		bu.SetCurrent(entry)
		v0 := bu.Const(1)
		v1 := bu.Const(2)
		bu.Jmp(join, 1)
		bu.SetCurrent(dead)
		v2 := bu.Bin(ir.OpAdd, v1, v0)
		bu.Store(v2, 0, v2)
		bu.Jmp(join, 0)
		bu.SetCurrent(join)
		bu.Ret(bu.Bin(ir.OpAdd, v0, v1))
		f := bu.Finish()
		lv := dataflow.ComputeLiveness(f)
		checkReference(t, "unreachable", f, lv)
		if len(lv.In(dead.ID)) != 0 || len(lv.Out(dead.ID)) != 0 {
			t.Errorf("unreachable block has live sets %v / %v, want empty", lv.In(dead.ID), lv.Out(dead.ID))
		}
		if !lv.LiveIn(join, v0) || !lv.LiveOut(entry, v1) {
			t.Error("v0 and v1 should be live from entry into join")
		}
	})
	t.Run("irreducible", func(t *testing.T) {
		// entry: v0=param; v1=1; br v0 -> a | b
		// a: v2=v1+v0; br v2 -> b | exit
		// b: v1=v1+v0; br v1 -> a | exit
		// exit: ret v1
		// The a<->b cycle has two entries, so neither dominates the other.
		bu := ir.NewBuilder("irred", 1)
		entry := bu.Block("entry")
		a := bu.F.NewBlock("a")
		b := bu.F.NewBlock("b")
		exit := bu.F.NewBlock("exit")
		v0 := bu.F.Params[0]
		bu.SetCurrent(entry)
		v1 := bu.Const(1)
		bu.Br(v0, a, b, 1, 1)
		bu.SetCurrent(a)
		v2 := bu.Bin(ir.OpAdd, v1, v0)
		bu.Br(v2, b, exit, 1, 1)
		bu.SetCurrent(b)
		bu.BinInto(ir.OpAdd, v1, v1, v0)
		bu.Br(v1, a, exit, 1, 1)
		bu.SetCurrent(exit)
		bu.Ret(v1)
		f := bu.Finish()
		lv := dataflow.ComputeLiveness(f)
		checkReference(t, "irreducible", f, lv)
		for _, blk := range []*ir.Block{a, b} {
			if got, want := lv.In(blk.ID), []ir.Reg{v0, v1}; !slices.Equal(got, want) {
				t.Errorf("%s live-in = %v, want %v", blk.Name, got, want)
			}
		}
	})
}

// TestLivenessMatchesReferenceRandomCFGs checks arbitrary CFGs: random
// edges make unreachable blocks, irreducible loops, self loops and
// branches with both arms on one block, and the random operands mix
// virtual and physical registers, call arguments and registers read
// before any write.
func TestLivenessMatchesReferenceRandomCFGs(t *testing.T) {
	for seed := uint64(1); seed <= 2000; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		bu := ir.NewBuilder("rand", 1)
		regs := []ir.Reg{bu.F.Params[0], ir.Phys(0), ir.Phys(11), ir.Phys(63)}
		for range rng.IntN(6) {
			regs = append(regs, bu.F.NewVirt())
		}
		pick := func() ir.Reg { return regs[rng.IntN(len(regs))] }
		blocks := make([]*ir.Block, 1+rng.IntN(10))
		for i := range blocks {
			blocks[i] = bu.F.NewBlock(fmt.Sprintf("b%d", i))
		}
		bu.F.Entry = blocks[0]
		for _, b := range blocks {
			bu.SetCurrent(b)
			for range rng.IntN(5) {
				if rng.IntN(4) == 0 {
					bu.Call(pick(), "g", pick(), pick())
				} else {
					bu.BinInto(ir.OpAdd, pick(), pick(), pick())
				}
			}
			switch rng.IntN(3) {
			case 0:
				bu.Ret(pick())
			case 1:
				bu.Jmp(blocks[rng.IntN(len(blocks))], 1)
			default:
				bu.Br(pick(), blocks[rng.IntN(len(blocks))], blocks[rng.IntN(len(blocks))], 1, 1)
			}
		}
		f := bu.Finish()
		checkReference(t, fmt.Sprintf("random CFG %d", seed), f, dataflow.ComputeLiveness(f))
	}
}
