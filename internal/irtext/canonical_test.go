package irtext_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/strategy"
	"repro/internal/workload"
)

// TestParseCanonical: Print's output parses as canonical at every
// pipeline stage, and a text one spelling away from it parses to the
// same program but not as canonical.
func TestParseCanonical(t *testing.T) {
	t.Run("printed", func(t *testing.T) {
		var texts []string
		for _, run := range goldenRuns() {
			texts = append(texts, run.texts...)
		}
		for _, fam := range goldenFamilies {
			for seed := uint64(31); seed <= 50; seed++ {
				stages, _ := printStages(irgen.Generate(seed, fam.cfg))
				texts = append(texts, stages...)
			}
		}
		// The generated programs place no code on jump edges; the
		// paper's Figure 2 under the execution-count model does.
		for _, s := range []strategy.Strategy{strategy.HierarchicalExec, strategy.ShrinkwrapSeed} {
			p := ir.NewProgram()
			p.Add(workload.NewFigure2().Func)
			if err := strategy.PlaceProgramFor(p, s, nil, 1, nil); err != nil {
				t.Fatal(err)
			}
			texts = append(texts, irtext.Print(p))
		}
		// The texts must hold what the one-scan path reads besides
		// plain instructions.
		for _, part := range []string{"!spill", "!sr", "!jb", "save ", "restore ", "entry=", "call "} {
			if !slices.ContainsFunc(texts, func(s string) bool { return strings.Contains(s, part) }) {
				t.Errorf("no printed text holds %q", part)
			}
		}
		if !slices.ContainsFunc(texts, func(s string) bool { return strings.HasPrefix(s, "main ") }) {
			t.Error("no printed text opens with a main directive")
		}
		for i, src := range texts {
			p, canonical, err := irtext.ParseCanonical(src)
			if err != nil {
				t.Fatalf("text %d: %v", i, err)
			}
			if !canonical {
				t.Fatalf("text %d: Print output not reported canonical:\n%s", i, src)
			}
			if irtext.Print(p) != src {
				t.Fatalf("text %d: canonical, but Print differs from the source", i)
			}
		}
		t.Logf("%d printed texts", len(texts))
	})

	t.Run("near misses", func(t *testing.T) {
		want := parseDump(t, canonicalBase)
		if _, canonical, _ := irtext.ParseCanonical(canonicalBase); !canonical {
			t.Fatal("the base text is not canonical")
		}
		for _, c := range nearMisses {
			p, canonical, err := irtext.ParseCanonical(c.src)
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
				continue
			}
			if canonical {
				t.Errorf("%s: reported canonical", c.name)
			}
			if got := dumpProgram(p); got != want {
				t.Errorf("%s: parsed to another program:\n%s\nwant\n%s", c.name, got, want)
			}
		}
	})

	// Texts whose every line is in printed form, in an order Print
	// would not write them: Print of what they parse to differs.
	t.Run("reprinted differently", func(t *testing.T) {
		for _, c := range []struct{ name, src string }{
			{"a function defined twice", canonicalBase + "\nfunc g(v0, v1) {\nb:\n\tret v0\n}\n"},
			{"a main directive after the functions", canonicalBase + "main g\n"},
		} {
			p, canonical, err := irtext.ParseCanonical(c.src)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if irtext.Print(p) == c.src {
				t.Fatalf("%s: prints back unchanged", c.name)
			}
			if canonical {
				t.Errorf("%s: reported canonical", c.name)
			}
		}
	})
}

// canonicalBase is Print of a two-function program whose main is its
// first function. Each nearMisses entry spells it another way. In f,
// v3 appears only as a parameter and v4 only as a call argument, so
// both count into NumVirt.
const canonicalBase = "func f(v0, v3) {\n" +
	"entry:\n" +
	"\tr5 = const 5\n" +
	"\tv1 = const 0\n" +
	"\tv2 = call g(v0, v4)\n" +
	"\tjmp exit ; 0\n" +
	"exit:\n" +
	"\tret v2\n" +
	"}\n" +
	"\n" +
	"func g(v0, v1) entry=3 {\n" +
	"b:\n" +
	"\tv2 = add v0, v1\n" +
	"\tbr v2, t, e ; 2 1\n" +
	"t:\n" +
	"\tspill.st 0, v2 !spill\n" +
	"\tret v2\n" +
	"e:\n" +
	"\tret v1\n" +
	"}\n"

// nearMisses are canonicalBase with one spelling changed; each parses
// to the same program.
var nearMisses = []struct{ name, src string }{
	{"comment", strings.Replace(canonicalBase, "entry:\n", "entry:\n# a comment\n", 1)},
	{"trailing comment", strings.Replace(canonicalBase, "\tret v1\n", "\tret v1 # done\n", 1)},
	{"trailing space", strings.Replace(canonicalBase, "\tret v2\n", "\tret v2 \n", 1)},
	{"doubled space", strings.Replace(canonicalBase, "add v0, v1", "add v0,  v1", 1)},
	{"CRLF", strings.ReplaceAll(canonicalBase, "\n", "\r\n")},
	{"leading blank line", "\n" + canonicalBase},
	{"no final newline", strings.TrimSuffix(canonicalBase, "\n")},
	{"two final newlines", canonicalBase + "\n"},
	{"no blank line between functions", strings.Replace(canonicalBase, "}\n\n", "}\n", 1)},
	{"two blank lines between functions", strings.Replace(canonicalBase, "}\n\n", "}\n\n\n", 1)},
	{"entry=0", strings.Replace(canonicalBase, "func f(v0, v3) {", "func f(v0, v3) entry=0 {", 1)},
	{"r05", strings.Replace(canonicalBase, "r5 = const 5", "r05 = const 5", 1)},
	{"+5", strings.Replace(canonicalBase, "r5 = const 5", "r5 = const +5", 1)},
	{"-0", strings.Replace(canonicalBase, "v1 = const 0", "v1 = const -0", 1)},
	{"jmp with no weight", strings.Replace(canonicalBase, "jmp exit ; 0", "jmp exit", 1)},
	{"main directive naming the first function", "main f\n\n" + canonicalBase},
	{"tab in a register list", strings.Replace(canonicalBase, "g(v0, v4)", "g(v0,\tv4)", 1)},
}

// parseDump parses src and returns dumpProgram of the result.
func parseDump(t *testing.T, src string) string {
	t.Helper()
	p, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return dumpProgram(p)
}

// dumpProgram renders what Parse builds beyond Print's text: the main
// function, each function's register and frame counts, and every
// block's edges with their kinds and weights.
func dumpProgram(p *ir.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "main=%s\n%s", p.Main, irtext.Print(p))
	for _, f := range p.FuncsInOrder() {
		fmt.Fprintf(&b, "func %s virt=%d spill=%d save=%d entry=%d\n",
			f.Name, f.NumVirt, f.SpillSlots, f.SaveSlots, f.EntryCount)
		for _, blk := range f.Blocks {
			fmt.Fprintf(&b, "%s:", blk.Name)
			for _, e := range blk.Succs {
				fmt.Fprintf(&b, " >%s/%v/%d", e.To.Name, e.Kind, e.Weight)
			}
			for _, e := range blk.Preds {
				fmt.Fprintf(&b, " <%s", e.From.Name)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestParseAllocs holds the allocations of one parse of an
// irgen.Default program (seed 1) to at most the 201 the line-at-a-time
// parser made, a guard that does not depend on the host's speed.
func TestParseAllocs(t *testing.T) {
	src := irtext.Print(irgen.Generate(1, irgen.Default()))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := irtext.Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations", allocs)
	if allocs > 201 {
		t.Errorf("Parse made %.0f allocations, want at most 201", allocs)
	}
}
