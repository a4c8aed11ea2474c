package spillopt

// Benchmark harness regenerating every table and figure of the paper's
// evaluation section:
//
//   BenchmarkFigure5/<name>  — dynamic spill overhead per benchmark and
//                              strategy (the Figure 5 bar chart data),
//                              reported as opt/sw/base metrics.
//   BenchmarkTable1          — overhead ratios vs entry/exit placement
//                              (Table 1), reported as percentages.
//   BenchmarkTable2/<name>   — incremental placement time of
//                              shrink-wrapping vs the hierarchical
//                              algorithm (Table 2).
//   BenchmarkFigure2*        — the worked example's placement passes.
//
// Absolute times differ from the paper's 2006 workstation, but the
// shapes — who wins, by what factor — are the reproduction targets.
// See EXPERIMENTS.md for recorded paper-vs-measured values.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/pst"
	"repro/internal/shrinkwrap"
	"repro/internal/workload"
)

// paperSweep runs the paper's evaluation, the one-machine sweep on the
// unit-cost classic preset, b.N times over entries and returns the
// last run.
func paperSweep(b *testing.B, entries ...bench.Entry) *bench.Sweep {
	classic, err := machine.Preset("classic")
	if err != nil {
		b.Fatal(err)
	}
	var sw *bench.Sweep
	for i := 0; i < b.N; i++ {
		sw, err = bench.RunSweep(entries, []*machine.Desc{classic}, bench.Options{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	return sw
}

func BenchmarkFigure5(b *testing.B) {
	for _, p := range workload.SPECInt2000() {
		b.Run(p.Name, func(b *testing.B) {
			c := paperSweep(b, bench.EntryFor(p)).Results[0].Cells[0]
			b.ReportMetric(float64(c[bench.Optimized].WeightedOverhead), "optimized")
			b.ReportMetric(float64(c[bench.Shrinkwrap].WeightedOverhead), "shrinkwrap")
			b.ReportMetric(float64(c[bench.Baseline].WeightedOverhead), "baseline")
		})
	}
}

func BenchmarkTable1(b *testing.B) {
	var entries []bench.Entry
	for _, p := range workload.SPECInt2000() {
		entries = append(entries, bench.EntryFor(p))
	}
	results := paperSweep(b, entries...).Results
	var so, ss float64
	for _, r := range results {
		so += r.Ratio(0, bench.Optimized)
		ss += r.Ratio(0, bench.Shrinkwrap)
	}
	n := float64(len(results))
	b.ReportMetric(so/n, "opt-pct") // paper: 84.8
	b.ReportMetric(ss/n, "sw-pct")  // paper: 99.3
}

func BenchmarkTable2(b *testing.B) {
	for _, p := range workload.SPECInt2000() {
		b.Run(p.Name, func(b *testing.B) {
			c := paperSweep(b, bench.EntryFor(p)).Results[0].Cells[0]
			sw := float64(c[bench.Shrinkwrap].PlacementTime.Nanoseconds())
			opt := float64(c[bench.Optimized].PlacementTime.Nanoseconds())
			b.ReportMetric(sw, "sw-ns")
			b.ReportMetric(opt, "opt-ns")
			if sw > 0 {
				b.ReportMetric(opt/sw, "ratio") // paper average: 5.44
			}
		})
	}
}

// BenchmarkFigure2Hierarchical times the paper's algorithm on the
// worked example (PST + seed + traversal).
func BenchmarkFigure2Hierarchical(b *testing.B) {
	fig := workload.NewFigure2()
	f := fig.Func
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := pst.Build(f)
		if err != nil {
			b.Fatal(err)
		}
		seed := shrinkwrap.Compute(f, shrinkwrap.Seed)
		final, _, err := core.Hierarchical(f, t, seed, core.JumpEdgeModel{})
		if err != nil {
			b.Fatal(err)
		}
		if core.TotalCost(core.JumpEdgeModel{}, final) != 200 {
			b.Fatal("wrong result")
		}
	}
}

// BenchmarkFigure2Shrinkwrap times Chow's technique on the same CFG,
// for the Table 2 style comparison at micro scale.
func BenchmarkFigure2Shrinkwrap(b *testing.B) {
	fig := workload.NewFigure2()
	f := fig.Func
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sets := shrinkwrap.Compute(f, shrinkwrap.Original)
		if core.TotalCost(core.ExecCountModel{}, sets) != 250 {
			b.Fatal("wrong result")
		}
	}
}

// BenchmarkPSTBuild times program structure tree construction alone on
// the largest generated program (gcc), the algorithm's main substrate.
func BenchmarkPSTBuild(b *testing.B) {
	var p workload.BenchParams
	for _, q := range workload.SPECInt2000() {
		if q.Name == "gcc" {
			p = q
		}
	}
	prog := workload.Generate(p)
	funcs := prog.FuncsInOrder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range funcs {
			if _, err := pst.Build(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEndToEnd times the whole public-API pipeline on the
// quickstart program.
func BenchmarkEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := ParseProgram(demoSrc)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.Profile(50); err != nil {
			b.Fatal(err)
		}
		if err := p.Allocate(); err != nil {
			b.Fatal(err)
		}
		if err := p.Place(HierarchicalJump); err != nil {
			b.Fatal(err)
		}
		if _, err := p.Run(50); err != nil {
			b.Fatal(err)
		}
	}
}
