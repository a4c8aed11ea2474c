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

	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
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
