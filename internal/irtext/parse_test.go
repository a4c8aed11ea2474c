package irtext_test

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/irtext"
)

// chainSource is a function of n blocks, each jumping to the next.
func chainSource(n int) string {
	var b strings.Builder
	b.WriteString("func main(v0) {\n")
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "b%d:\n\tjmp b%d\n", i, i+1)
	}
	fmt.Fprintf(&b, "b%d:\n\tret v0\n}\n", n-1)
	return b.String()
}

// funcsSource is a program of n single-block functions.
func funcsSource(n int) string {
	var b strings.Builder
	for i := range n {
		fmt.Fprintf(&b, "func f%d() {\nb:\n\tret\n}\n", i)
	}
	return b.String()
}

// TestParseLinearInBlocks: parse time grows linearly with the block
// count, so labels and branch targets must resolve by name lookup, not
// by a scan of the blocks, and each function's name lookup must cost
// no more than its own blocks. It times 4,000 blocks against 500:
// linear parsing reads about 8x, quadratic parsing about 64x, and the
// bound is their geometric mean, 22.6x. A scan of the blocks per label
// read 53x here, and a name map cleared at each function 63x.
// Collection is off while timing, so the larger parse does not pay for
// cycles the smaller one never starts. The two sizes are timed
// alternately, fifteen times each, and the minimums compared, so that
// load from other processes weighs on both alike. A ratio past the
// bound is measured again, up to three times in all: a burst of load
// rarely lasts that long, while quadratic growth shows every time.
func TestParseLinearInBlocks(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const small, large = 500, 4_000
	// The geometric mean of linear growth, r, and quadratic, r².
	r := float64(large / small)
	bound := math.Sqrt(r * r * r)
	for _, tc := range []struct {
		name   string
		source func(n int) string
		blocks func(*ir.Program) int
	}{
		{"chained blocks", chainSource, func(p *ir.Program) int { return len(p.Func("main").Blocks) }},
		{"single-block functions", funcsSource, func(p *ir.Program) int { return len(p.Funcs) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			timeParse := func(n int, src string) time.Duration {
				runtime.GC()
				start := time.Now()
				p, err := irtext.Parse(src)
				elapsed := time.Since(start)
				if err != nil {
					t.Fatalf("%d blocks: %v", n, err)
				}
				if got := tc.blocks(p); got != n {
					t.Fatalf("%d blocks parsed into %d", n, got)
				}
				return elapsed
			}
			smallSrc, largeSrc := tc.source(small), tc.source(large)
			for attempt := 1; ; attempt++ {
				ts, tl := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
				for range 15 {
					ts = min(ts, timeParse(small, smallSrc))
					tl = min(tl, timeParse(large, largeSrc))
				}
				ratio := float64(tl) / float64(ts)
				t.Logf("%d blocks %v, %d blocks %v (%.1fx)", small, ts, large, tl, ratio)
				if ratio < bound {
					break
				}
				if attempt == 3 {
					t.Errorf("%gx the blocks took %.1fx the time (%v vs %v), want under %.1fx", r, ratio, tl, ts, bound)
					break
				}
			}
		})
	}
}

// parseQuirks pins edge cases of the language as the parser accepts
// them today. FuzzParse seeds every source.
var parseQuirks = []struct {
	name, src string
	check     func(*ir.Program) string // accepted: "" when p is right
	err       string                   // rejected: the full error text
}{
	{
		name: "signed register number",
		// strconv.Atoi accepts a sign, so v+0 reads as v0.
		src: "func f(v+0) {\ne:\n\tret v+0\n}\n",
		check: func(p *ir.Program) string {
			f := p.Func("f")
			if len(f.Params) != 1 || f.Params[0] != ir.Virt(0) || f.NumVirt != 1 {
				return fmt.Sprintf("params %v, NumVirt %d; want [v0], 1", f.Params, f.NumVirt)
			}
			return ""
		},
	},
	{
		name: "bare label",
		// An empty label gets the name Func.NewBlock gives it: b<ID>.
		src: "func f() {\n:\n\tjmp b1\n:\n\tret\n}\n",
		check: func(p *ir.Program) string {
			f := p.Func("f")
			if len(f.Blocks) != 2 || f.Blocks[0].Name != "b0" || f.Blocks[1].Name != "b1" ||
				f.Blocks[0].Succs[0].To != f.Blocks[1] {
				return "want blocks b0 -> b1"
			}
			return ""
		},
	},
	{
		name: "non-ASCII space between weights",
		// Weights split as strings.Fields splits, on Unicode spaces.
		src: "func f() {\ne:\n\tv0 = const 1\n\tbr v0, a, b ; 2\u00a03\na:\n\tret\nb:\n\tret\n}\n",
		check: func(p *ir.Program) string {
			e := p.Func("f").Entry
			if e.Succs[0].Weight != 2 || e.Succs[1].Weight != 3 {
				return fmt.Sprintf("weights %d %d, want 2 3", e.Succs[0].Weight, e.Succs[1].Weight)
			}
			return ""
		},
	},
	{
		name: "empty parameter",
		src:  "func f(v0,) {\ne:\n\tret\n}\n",
		err:  `irtext: line 1: bad register ""`,
	},
	{
		name: "branch with equal targets",
		src:  "func f() {\ne:\n\tv0 = const 1\n\tbr v0, a, a\na:\n\tret\n}\n",
		err:  "irtext: parsed program invalid: ir.Verify(f): br block e has identical then/else targets",
	},
	{
		name: "jmp before the last instruction",
		src:  "func f() {\ne:\n\tjmp a\n\tret\na:\n\tret\n}\n",
		err: "irtext: parsed program invalid: ir.Verify(f): block e has terminator jmp at non-final position 0\n" +
			"ir.Verify(f): ret block e has 1 successors",
	},
	{
		name: "jmp with two weights",
		src:  "func f() {\ne:\n\tjmp a ; 1 2\na:\n\tret\n}\n",
		err:  "irtext: line 3: jmp takes one weight",
	},
}

func TestParseQuirks(t *testing.T) {
	for _, c := range parseQuirks {
		p, err := irtext.Parse(c.src)
		switch {
		case c.err != "":
			if err == nil || err.Error() != c.err {
				t.Errorf("%s: error %v, want %q", c.name, err, c.err)
			}
		case err != nil:
			t.Errorf("%s: %v", c.name, err)
		default:
			if msg := c.check(p); msg != "" {
				t.Errorf("%s: %s", c.name, msg)
			}
		}
	}
}
