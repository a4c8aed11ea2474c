package vm_test

// Engine throughput benchmarks: the same placed SPEC stand-in program
// executed by each engine under the measurement configuration
// (convention checking on, edge collection off — exactly what
// bench.RunSweep measures). CI runs these with -benchtime=1x as a
// smoke test; EXPERIMENTS.md records full runs.

import (
	"testing"
	"time"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
	"repro/internal/workload"
)

// placedBench builds one profiled, allocated, hierarchically placed
// SPEC stand-in program — the exact artifact the evaluation measures.
func placedBench(b *testing.B, name string) *workloadProgram {
	b.Helper()
	for _, p := range workload.SPECInt2000() {
		if p.Name != name {
			continue
		}
		prog := workload.Generate(p)
		if _, err := profile.Collect(prog, vm.Config{}, 0); err != nil {
			b.Fatal(err)
		}
		mach := machine.PARISC()
		if _, err := regalloc.AllocateProgram(prog, mach, 1, regalloc.Options{}); err != nil {
			b.Fatal(err)
		}
		if err := strategy.PlaceProgramFor(prog, strategy.HierarchicalJump, nil, 1, nil); err != nil {
			b.Fatal(err)
		}
		return &workloadProgram{prog: prog, mach: mach}
	}
	b.Fatalf("no SPEC stand-in named %q", name)
	return nil
}

type workloadProgram struct {
	prog *ir.Program
	mach *machine.Desc
}

func benchEngine(b *testing.B, e vm.Engine) {
	w := placedBench(b, "vortex")
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		m := vm.New(w.prog, vm.Config{Machine: w.mach, Engine: e})
		if _, err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		instrs = m.Stats.Instrs
	}
	b.ReportMetric(float64(instrs)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkEngineRegcode(b *testing.B) { benchEngine(b, vm.EngineRegcode) }

func BenchmarkEngineTree(b *testing.B) { benchEngine(b, vm.EngineTree) }

// BenchmarkEngineRegcodeProfiling measures the profiling
// configuration (edge collection on), the other hot path.
func BenchmarkEngineRegcodeProfiling(b *testing.B) {
	w := placedBench(b, "vortex")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := vm.New(w.prog, vm.Config{CollectEdges: true, Engine: vm.EngineRegcode})
		if _, err := m.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineTreeProfiling(b *testing.B) {
	w := placedBench(b, "vortex")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := vm.New(w.prog, vm.Config{CollectEdges: true, Engine: vm.EngineTree})
		if _, err := m.Run(0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineServiceRun measures the placement service's final
// run of an exec-run request: vm.New plus a Run of irgen.Hostile
// programs (seeds 1–20, args seed%7) profiled, allocated and
// hierarchically placed on the classic preset, with convention
// checking on and edge collection off. One iteration is one program;
// ns/instr is the Run time per executed IR instruction.
func BenchmarkEngineServiceRun(b *testing.B) {
	mach, err := machine.Preset("classic")
	if err != nil {
		b.Fatal(err)
	}
	type program struct {
		prog *ir.Program
		arg  int64
	}
	progs := make([]program, 20)
	for i := range progs {
		seed := uint64(i + 1)
		p := program{irgen.Generate(seed, irgen.Hostile()), int64(seed % 7)}
		if _, err := profile.Collect(p.prog, vm.Config{}, p.arg); err != nil {
			b.Fatal(err)
		}
		if _, err := regalloc.AllocateProgram(p.prog, mach, 1, regalloc.Options{}); err != nil {
			b.Fatal(err)
		}
		if err := strategy.PlaceProgramFor(p.prog, strategy.HierarchicalJump, mach, 1, nil); err != nil {
			b.Fatal(err)
		}
		progs[i] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	var runNS time.Duration
	var instrs int64
	for i := 0; i < b.N; i++ {
		p := progs[i%len(progs)]
		m := vm.New(p.prog, vm.Config{Machine: mach})
		start := time.Now()
		if _, err := m.Run(p.arg); err != nil {
			b.Fatal(err)
		}
		runNS += time.Since(start)
		instrs += m.Stats.Instrs
	}
	b.ReportMetric(float64(runNS.Nanoseconds())/float64(instrs), "ns/instr")
}

// BenchmarkEngineServiceProfile measures what the placement service's
// profiling step costs on short programs, where compiling dominates:
// vm.New plus an edge-collecting Run of the default engine on 20
// unallocated irgen.Default programs (args [5]) and 20 irgen.Hostile
// programs (args seed%7). One iteration is one program, so B/op and
// allocs/op are per program; new-ns/op is the vm.New share of ns/op.
func BenchmarkEngineServiceProfile(b *testing.B) {
	sets := []struct {
		name string
		cfg  irgen.Config
		arg  func(seed uint64) int64
	}{
		{"default", irgen.Default(), func(uint64) int64 { return 5 }},
		{"hostile", irgen.Hostile(), func(seed uint64) int64 { return int64(seed % 7) }},
	}
	for _, set := range sets {
		type program struct {
			prog *ir.Program
			arg  int64
		}
		progs := make([]program, 20)
		for i := range progs {
			seed := uint64(i + 1)
			progs[i] = program{irgen.Generate(seed, set.cfg), set.arg(seed)}
		}
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			var newNS time.Duration
			for i := 0; i < b.N; i++ {
				p := progs[i%len(progs)]
				start := time.Now()
				m := vm.New(p.prog, vm.Config{CollectEdges: true, MaxSteps: 1 << 26})
				newNS += time.Since(start)
				if _, err := m.Run(p.arg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(newNS.Nanoseconds())/float64(b.N), "new-ns/op")
		})
	}
}
