package irtext_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/irtext"
)

// parseGolden is the sha256 of every parseCorpus input's parse result
// (hashParse). It was taken from the parser that resolved labels with
// Func.BlockByName and linked edges one AddEdge at a time, so it pins
// the slab-built parser to the same programs and the same error text.
const parseGolden = "c65a52c0f8d01606d60a2dcbd37d2385f41eda491cd9a36ba0921b3fbd21d0ec"

func TestParseGolden(t *testing.T) {
	corpus := parseCorpus(t)
	h := sha256.New()
	accepted := 0
	for _, src := range corpus {
		if hashParse(h, src) {
			accepted++
		}
	}
	t.Logf("%d inputs, %d accepted", len(corpus), accepted)
	if got := hex.EncodeToString(h.Sum(nil)); got != parseGolden {
		t.Fatalf("Parse digest = %s, want %s", got, parseGolden)
	}
}

// hashParse writes src's parse result to h and reports whether Parse
// accepted it. An accepted program contributes its Print text, each
// function's frame counts and entry block, and every block's successor
// and predecessor edges in list order; a rejected one its error text.
func hashParse(h hash.Hash, src string) bool {
	p, err := irtext.Parse(src)
	if err != nil {
		fmt.Fprintf(h, "error %s\n", err)
		return false
	}
	fmt.Fprintf(h, "ok main=%s\n", p.Main)
	io.WriteString(h, irtext.Print(p))
	for _, f := range p.FuncsInOrder() {
		fmt.Fprintf(h, "func %s virt=%d spill=%d save=%d entry=%s\n",
			f.Name, f.NumVirt, f.SpillSlots, f.SaveSlots, f.Entry.Name)
		for _, b := range f.Blocks {
			fmt.Fprintf(h, "%d %s", b.ID, b.Name)
			for _, e := range b.Succs {
				fmt.Fprintf(h, " >%s/%v/%d", e.To.Name, e.Kind, e.Weight)
			}
			for _, e := range b.Preds {
				fmt.Fprintf(h, " <%s/%v/%d", e.From.Name, e.Kind, e.Weight)
			}
			io.WriteString(h, "\n")
		}
	}
	return true
}

// parseCorpus is every testdata program, Print of every goldenRuns
// stage, and mutationsPerText seeded mutations of each of those texts.
func parseCorpus(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.ir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	var texts []string
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, string(b))
	}
	for _, run := range goldenRuns() {
		texts = append(texts, run.texts...)
	}
	corpus := append([]string(nil), texts...)
	rng := splitmix(0x9a75e6017d1c0ffe)
	for _, text := range texts {
		for range mutationsPerText {
			corpus = append(corpus, mutate(&rng, text))
		}
	}
	return corpus
}

const mutationsPerText = 10

// grammarTokens are the tokens mutations insert or substitute: the
// grammar's separators, a signed register number, an out-of-range
// physical register, and a non-ASCII space (U+00A0).
var grammarTokens = []string{",", ":", ";", "#", "}", "v+2", "r64", "\u00a0"}

// mutate applies one seeded edit to s: it deletes a span, inserts or
// substitutes a grammar token, duplicates a line, or truncates the
// text. Positions are byte offsets, so an edit may split a multi-byte
// rune.
func mutate(rng *splitmix, s string) string {
	if s == "" {
		return grammarTokens[rng.intn(len(grammarTokens))]
	}
	i := rng.intn(len(s))
	tok := grammarTokens[rng.intn(len(grammarTokens))]
	switch rng.intn(5) {
	case 0:
		return s[:i] + s[min(len(s), i+1+rng.intn(8)):]
	case 1:
		return s[:i] + tok + s[i:]
	case 2:
		return s[:i] + tok + s[min(len(s), i+1+rng.intn(4)):]
	case 3:
		start := strings.LastIndexByte(s[:i], '\n') + 1
		end := len(s)
		if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
			end = i + j + 1
		}
		return s[:end] + s[start:end] + s[end:]
	}
	return s[:i]
}

// splitmix is a splitmix64 generator: a fixed sequence for a fixed
// seed on every Go release, which the golden digest depends on.
type splitmix uint64

func (x *splitmix) next() uint64 {
	*x += 0x9e3779b97f4a7c15
	z := uint64(*x)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (x *splitmix) intn(n int) int { return int(x.next() % uint64(n)) }
