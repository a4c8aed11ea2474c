package irtext_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
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

// printGolden is the sha256 of Print over every goldenFamilies program
// of seeds 1-30 at four stages: raw, profiled, allocated and
// hierarchically placed. It was taken from the fmt-based printer the
// append renderer replaced, so it pins the two to the same bytes: the
// service's function hashes and cache keys are digests of this text.
const printGolden = "6c81fbb774990d8537730f555a78920daaa33bec20bcf3f138c04e329e32b370"

func TestPrintGolden(t *testing.T) {
	h := sha256.New()
	for _, run := range goldenRuns() {
		fmt.Fprintf(h, "%s %d\n", run.family, run.seed)
		for _, text := range run.texts {
			io.WriteString(h, text)
		}
		io.WriteString(h, run.failure)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != printGolden {
		t.Fatalf("Print digest = %s, want %s", got, printGolden)
	}
}

// goldenRun is one generated program's walk through printStages.
type goldenRun struct {
	family  string
	seed    uint64
	texts   []string // Print after each stage that succeeded
	failure string   // the failing stage's error line, or ""
}

// goldenRuns walks every goldenFamilies program of seeds 1-30 through
// printStages once per test binary; the print and parse goldens share
// the result.
var goldenRuns = sync.OnceValue(func() []goldenRun {
	var runs []goldenRun
	for _, fam := range goldenFamilies {
		for seed := uint64(1); seed <= 30; seed++ {
			run := goldenRun{family: fam.name, seed: seed}
			run.texts, run.failure = printStages(irgen.Generate(seed, fam.cfg))
			runs = append(runs, run)
		}
	}
	return runs
})

// printStages returns Print of p after each pipeline stage: raw,
// profiled, allocated and placed. A stage that fails ends the walk and
// is reported as an error line.
func printStages(p *ir.Program) (texts []string, failure string) {
	texts = append(texts, irtext.Print(p))
	if _, err := profile.Collect(p, vm.Config{MaxSteps: 1 << 24}, 5); err != nil {
		return texts, fmt.Sprintf("profile: %v\n", err)
	}
	texts = append(texts, irtext.Print(p))
	if _, err := regalloc.AllocateProgram(p, machine.PARISC(), 1, regalloc.Options{}); err != nil {
		return texts, fmt.Sprintf("allocate: %v\n", err)
	}
	texts = append(texts, irtext.Print(p))
	if err := strategy.PlaceProgramFor(p, strategy.HierarchicalJump, nil, 1, nil); err != nil {
		return texts, fmt.Sprintf("place: %v\n", err)
	}
	return append(texts, irtext.Print(p)), ""
}
