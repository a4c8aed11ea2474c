package regalloc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/vm"
)

// goldenFamilies are the generator families the golden digests cover.
var goldenFamilies = []struct {
	name string
	cfg  irgen.Config
}{
	{"default", irgen.Default()},
	{"small", irgen.Small()},
	{"hostile", irgen.Hostile()},
	{"crossover", irgen.Crossover()},
}

// profiledCorpus generates seeds [1, n] of every golden family and
// profiles each program on argument 5.
func profiledCorpus(t testing.TB, n uint64) []*ir.Program {
	t.Helper()
	var progs []*ir.Program
	for _, fam := range goldenFamilies {
		progs = append(progs, profiled(t, fam.cfg, n)...)
	}
	return progs
}

// profiled generates seeds [1, n] under cfg and profiles each program
// on argument 5.
func profiled(t testing.TB, cfg irgen.Config, n uint64) []*ir.Program {
	t.Helper()
	progs := make([]*ir.Program, n)
	for i := range progs {
		progs[i] = irgen.Generate(uint64(i+1), cfg)
		if _, err := profile.Collect(progs[i], vm.Config{MaxSteps: 1 << 24}, 5); err != nil {
			t.Fatalf("seed %d: %v", i+1, err)
		}
	}
	return progs
}

// allocGolden is the sha256 of the allocated IR and every Result field
// for the profiled corpus of seeds 1-50 under the six machine presets
// in both allocation modes, then seeds 1-15 on two tiny machines that
// force heavy spilling. It was taken from the map-based interference
// graph the dense one replaced, so it pins the two to the same
// allocations: spill choice, colors and tie-breaks included.
const allocGolden = "52ef0aceeb7e217c2efab12f16a2b778608aad64ebad28081e2b50f9c8337f77"

func TestAllocateGolden(t *testing.T) {
	h := sha256.New()
	corpus := profiledCorpus(t, 50)
	for _, p := range corpus {
		for _, d := range machine.Presets() {
			for _, opts := range []regalloc.Options{{}, {MachineCosts: true}} {
				allocDigest(h, p, d, opts)
			}
		}
	}
	for i, p := range corpus {
		if i%50 >= 15 {
			continue
		}
		for _, d := range []*machine.Desc{machine.Small(6, 2), machine.Small(9, 4)} {
			allocDigest(h, p, d, regalloc.Options{})
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != allocGolden {
		t.Fatalf("allocation digest = %s, want %s", got, allocGolden)
	}
}

// allocDigest allocates a clone of p for d and writes the allocated
// text and every function's Result (or the error) to h.
func allocDigest(h hash.Hash, p *ir.Program, d *machine.Desc, opts regalloc.Options) {
	q := p.Clone()
	fmt.Fprintf(h, "%s/%d/%d %v\n", d.Name, d.NumRegs, d.CalleeSavedFrom, opts.MachineCosts)
	res, err := regalloc.AllocateProgram(q, d, 1, opts)
	if err != nil {
		fmt.Fprintf(h, "error: %v\n", err)
		return
	}
	io.WriteString(h, irtext.Print(q))
	for _, f := range q.FuncsInOrder() {
		r := res[f.Name]
		fmt.Fprintf(h, "%s %v %v %d %v\n", f.Name, r.Spilled, r.SpillWebs, r.Iterations, r.UsedCalleeSaved)
	}
}
