package irtext_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
)

// printed keeps BenchmarkPrint's result live.
var printed string

// BenchmarkPrint prints one irgen.Default program (seed 1), as the
// service does for its canonical program key.
func BenchmarkPrint(b *testing.B) {
	p := irgen.Generate(1, irgen.Default())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		printed = irtext.Print(p)
	}
}

// parsed keeps BenchmarkParse's result live.
var parsed *ir.Program

// BenchmarkParse parses one program (seed 1) of each generator family
// the service benchmark sends: Default (cold-compile), Small
// (hot-resubmit) and Hostile (exec-run). The service parses every
// request that misses its raw-text cache.
func BenchmarkParse(b *testing.B) {
	for _, fam := range []struct {
		name string
		cfg  irgen.Config
	}{
		{"Default", irgen.Default()},
		{"Small", irgen.Small()},
		{"Hostile", irgen.Hostile()},
	} {
		b.Run(fam.name, func(b *testing.B) {
			src := irtext.Print(irgen.Generate(1, fam.cfg))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := irtext.Parse(src)
				if err != nil {
					b.Fatal(err)
				}
				parsed = p
			}
		})
	}
}
