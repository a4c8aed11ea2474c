package bench

// vmbench.go measures the measurement engine itself: the same
// profiled, allocated, hierarchically placed SPEC stand-in programs
// executed by both engines — the register-transfer regcode engine and
// the legacy tree interpreter — reporting wall time and VM
// instruction throughput per engine. This
// is the perf trajectory record (BENCH_vm.json): every number the
// evaluation reports flows through these runs, so engine throughput is
// the ceiling on bench and fuzz throughput.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
	"repro/internal/workload"
)

// EngineBench is one engine's aggregate measurement over the suite.
type EngineBench struct {
	Engine       string  `json:"engine"`
	Runs         int     `json:"runs"`           // total VM executions
	WallNS       int64   `json:"wall_ns"`        // total wall time of those executions
	NSPerRun     float64 `json:"ns_per_run"`     // average per suite-program execution
	Instrs       int64   `json:"instrs"`         // total dynamic VM instructions
	InstrsPerSec float64 `json:"instrs_per_sec"` // VM instruction throughput
}

// BenchmarkEngineRow is one (benchmark, engine) cell of the suite:
// the per-benchmark breakdown behind the aggregate EngineBench rows,
// and the source of the EXPERIMENTS.md per-benchmark table.
type BenchmarkEngineRow struct {
	Benchmark    string  `json:"benchmark"`
	Engine       string  `json:"engine"`
	NSPerRun     float64 `json:"ns_per_run"`
	Instrs       int64   `json:"instrs"` // dynamic VM instructions, one run
	InstrsPerSec float64 `json:"instrs_per_sec"`
}

// VMBench is the serialized BENCH_vm.json shape.
type VMBench struct {
	Suite      string        `json:"suite"`
	Benchmarks []string      `json:"benchmarks"`
	Reps       int           `json:"reps"`
	GoVersion  string        `json:"go_version"`
	GOARCH     string        `json:"goarch"`
	Date       string        `json:"date"`
	Engines    []EngineBench `json:"engines"`
	// PerBenchmark breaks the engine aggregates down by suite
	// benchmark, rows ordered benchmark-major in suite order.
	PerBenchmark []BenchmarkEngineRow `json:"per_benchmark,omitempty"`
	// Speedup is regcode instruction throughput over the legacy tree
	// interpreter's — the ratio the regression gate compares.
	Speedup float64 `json:"speedup"`
}

// BenchVM prepares each suite benchmark once (generate, profile,
// allocate, place the paper's configuration) and then executes the
// placed program reps times per engine under the measurement
// configuration — convention checking on, a fresh VM per run, exactly
// as RunSweep measures — timing only the VM executions.
func BenchVM(suite []workload.BenchParams, reps int) (*VMBench, error) {
	if reps <= 0 {
		reps = 3
	}
	mach := machine.PARISC()
	out := &VMBench{
		Suite:     "SPEC CPU2000 integer stand-ins",
		Reps:      reps,
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Date:      time.Now().UTC().Format("2006-01-02"),
	}

	type prepared struct {
		name string
		prog *ir.Program
	}
	var progs []prepared
	for _, p := range suite {
		prog := workload.Generate(p)
		if _, err := profile.Collect(prog, vm.Config{}, 0); err != nil {
			return nil, fmt.Errorf("benchvm %s: profile: %w", p.Name, err)
		}
		if _, err := regalloc.AllocateProgram(prog, mach, 0, regalloc.Options{}); err != nil {
			return nil, fmt.Errorf("benchvm %s: regalloc: %w", p.Name, err)
		}
		if err := strategy.PlaceProgramFor(prog, strategy.HierarchicalJump, nil, 0, nil); err != nil {
			return nil, fmt.Errorf("benchvm %s: place: %w", p.Name, err)
		}
		progs = append(progs, prepared{p.Name, prog})
		out.Benchmarks = append(out.Benchmarks, p.Name)
	}

	// The engines alternate within every repetition, so host frequency
	// drift or background load during the measurement hits both engines
	// alike instead of skewing the ratio.
	engines := vm.Engines
	ebs := make([]EngineBench, len(engines))
	for i, e := range engines {
		ebs[i].Engine = e.String()
	}
	for _, pr := range progs {
		rows := make([]BenchmarkEngineRow, len(engines))
		for r := 0; r < reps; r++ {
			for i, engine := range engines {
				m := vm.New(pr.prog, vm.Config{Machine: mach, Engine: engine})
				start := time.Now()
				if _, err := m.Run(0); err != nil {
					return nil, fmt.Errorf("benchvm %s [%v]: %w", pr.name, engine, err)
				}
				wall := time.Since(start).Nanoseconds()
				// Every engine executes the same program, so a count
				// that differs from the first engine's means one of
				// them miscounts.
				if i > 0 && m.Stats.Instrs != rows[0].Instrs {
					return nil, fmt.Errorf("benchvm %s: %v executes %d instrs, %v executes %d",
						pr.name, engine, m.Stats.Instrs, engines[0], rows[0].Instrs)
				}
				ebs[i].WallNS += wall
				ebs[i].Instrs += m.Stats.Instrs
				ebs[i].Runs++
				rows[i].NSPerRun += float64(wall)
				rows[i].Instrs = m.Stats.Instrs
			}
		}
		for i, engine := range engines {
			rows[i].Benchmark = pr.name
			rows[i].Engine = engine.String()
			rows[i].NSPerRun /= float64(reps)
			if rows[i].NSPerRun > 0 {
				rows[i].InstrsPerSec = float64(rows[i].Instrs) / (rows[i].NSPerRun / 1e9)
			}
		}
		out.PerBenchmark = append(out.PerBenchmark, rows...)
	}
	for i := range ebs {
		ebs[i].NSPerRun = float64(ebs[i].WallNS) / float64(ebs[i].Runs)
		if ebs[i].WallNS > 0 {
			ebs[i].InstrsPerSec = float64(ebs[i].Instrs) / (float64(ebs[i].WallNS) / 1e9)
		}
	}
	out.Engines = ebs
	// vm.Engines lists regcode, then the tree reference.
	if ebs[1].InstrsPerSec > 0 {
		out.Speedup = ebs[0].InstrsPerSec / ebs[1].InstrsPerSec
	}
	return out, nil
}
