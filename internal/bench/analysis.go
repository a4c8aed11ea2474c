package bench

// analysis.go measures the analysis layer itself: the cost of
// re-placing the paper's configuration on an edited function with cold
// analyses, with a fully shared (warm) cache, and incrementally via
// core.Delta + analysis.ApplyDelta. This is the analysis-layer
// trajectory record (BENCH_analysis.json): the delta path's speedup
// over cold re-analysis is what makes placement cheap enough to re-run
// inside an allocator loop, so the CI gate pins it.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
	"repro/internal/workload"
)

// AnalysisRecord is one benchmark's aggregate re-placement timings.
type AnalysisRecord struct {
	Benchmark     string `json:"benchmark"`
	Functions     int    `json:"functions"`
	ColdNs        int64  `json:"cold_ns"`
	SharedNs      int64  `json:"shared_ns"`
	IncrementalNs int64  `json:"incremental_ns"`
}

// AnalysisBench is the serialized BENCH_analysis.json shape.
type AnalysisBench struct {
	Suite      string           `json:"suite"`
	Benchmarks []AnalysisRecord `json:"benchmarks"`
	Reps       int              `json:"reps"`
	GoVersion  string           `json:"go_version"`
	GOARCH     string           `json:"goarch"`
	Date       string           `json:"date"`
	// Suite totals and the host-independent speedup ratios the gate
	// compares: cold over shared and cold over incremental.
	ColdNs             int64   `json:"cold_ns"`
	SharedNs           int64   `json:"shared_ns"`
	IncrementalNs      int64   `json:"incremental_ns"`
	SharedSpeedup      float64 `json:"shared_speedup"`
	IncrementalSpeedup float64 `json:"incremental_speedup"`
	// Rebuilds counts functions whose incremental re-placement fell
	// back to a full analysis rebuild; 0 in a healthy tree.
	Rebuilds int `json:"rebuilds"`
}

// BenchAnalysis prepares each suite benchmark (generate, profile,
// allocate) and measures re-placement timings with measureReplacement,
// reps times per benchmark, keeping each column's per-rep minimum: the
// timings are sub-millisecond per benchmark, so a single GC pause or
// scheduler stall in one rep would otherwise dominate the record.
func BenchAnalysis(suite []workload.BenchParams, reps int) (*AnalysisBench, error) {
	if reps <= 0 {
		reps = 3
	}
	mach := machine.PARISC()
	out := &AnalysisBench{
		Suite:     "SPEC CPU2000 integer stand-ins",
		Reps:      reps,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Date:      time.Now().UTC().Format("2006-01-02"),
	}
	for _, p := range suite {
		rec := AnalysisRecord{Benchmark: p.Name}
		for rep := 0; rep < reps; rep++ {
			prog := workload.Generate(p)
			if _, err := profile.Collect(prog, vm.Config{}, 0); err != nil {
				return nil, fmt.Errorf("benchanalysis %s: profile: %w", p.Name, err)
			}
			if _, err := regalloc.AllocateProgram(prog, mach, 0, regalloc.Options{}); err != nil {
				return nil, fmt.Errorf("benchanalysis %s: regalloc: %w", p.Name, err)
			}
			coldNs, sharedNs, incNs, rebuilds, funcs, err := measureReplacement(prog)
			if err != nil {
				return nil, fmt.Errorf("benchanalysis %s: %w", p.Name, err)
			}
			rec.Functions = funcs
			if rep == 0 || coldNs < rec.ColdNs {
				rec.ColdNs = coldNs
			}
			if rep == 0 || sharedNs < rec.SharedNs {
				rec.SharedNs = sharedNs
			}
			if rep == 0 || incNs < rec.IncrementalNs {
				rec.IncrementalNs = incNs
			}
			out.Rebuilds += rebuilds
		}
		out.Benchmarks = append(out.Benchmarks, rec)
		out.ColdNs += rec.ColdNs
		out.SharedNs += rec.SharedNs
		out.IncrementalNs += rec.IncrementalNs
	}
	if out.SharedNs > 0 {
		out.SharedSpeedup = float64(out.ColdNs) / float64(out.SharedNs)
	}
	if out.IncrementalNs > 0 {
		out.IncrementalSpeedup = float64(out.ColdNs) / float64(out.IncrementalNs)
	}
	return out, nil
}

// measureReplacement measures the cost of re-placing the paper's
// configuration (HierarchicalJump) after its own placement edit, for
// every function of prog that needs placement. Per function it places
// once untimed through the delta path, then times three re-placements
// of the edited function:
//
//   - incremental: ApplyDelta patches the warmed analyses in place and
//     the compute rebuilds only the derived shrink-wrap seed;
//   - shared: a second compute over the now fully warmed handle (the
//     floor — pure hierarchical traversal);
//   - cold: a compute over a fresh handle, rebuilding liveness,
//     dominators, loops, the PST, and the seed from scratch.
//
// rebuilds counts functions whose incremental pass performed any full
// analysis rebuild (checked via analysis.Counts); a healthy tree
// reports 0. The sums feed the BENCH_analysis.json gate.
func measureReplacement(prog *ir.Program) (coldNs, sharedNs, incNs int64, rebuilds, funcs int, err error) {
	for _, f := range strategy.NeedsPlacement(prog) {
		info := analysis.For(f)
		sets, err := strategy.ComputeCachedFor(f, strategy.HierarchicalJump, info, nil)
		if err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("%s: %w", f.Name, err)
		}
		delta, err := core.ApplyWithDelta(f, sets)
		if err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("%s: %w", f.Name, err)
		}
		funcs++

		before := info.Counts()
		start := time.Now()
		info.ApplyDelta(delta)
		if _, err := strategy.ComputeCachedFor(f, strategy.HierarchicalJump, info, nil); err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("%s: incremental: %w", f.Name, err)
		}
		incNs += time.Since(start).Nanoseconds()
		after := info.Counts()
		if after.Liveness != before.Liveness || after.Dom != before.Dom ||
			after.Loops != before.Loops || after.PST != before.PST || after.SplitDom != before.SplitDom {
			rebuilds++
		}

		start = time.Now()
		if _, err := strategy.ComputeCachedFor(f, strategy.HierarchicalJump, info, nil); err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("%s: shared: %w", f.Name, err)
		}
		sharedNs += time.Since(start).Nanoseconds()

		start = time.Now()
		if _, err := strategy.ComputeCachedFor(f, strategy.HierarchicalJump, analysis.For(f), nil); err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("%s: cold: %w", f.Name, err)
		}
		coldNs += time.Since(start).Nanoseconds()
	}
	return coldNs, sharedNs, incNs, rebuilds, funcs, nil
}
