// Command spillbench reproduces the paper's evaluation: it runs the
// full pipeline (generate, profile, allocate, place, execute) over the
// synthetic SPEC CPU2000 integer workloads and prints Figure 5 and
// Tables 1-2.
//
// Usage:
//
//	spillbench                    # everything
//	spillbench -figure 5          # just the Figure 5 data
//	spillbench -table 1           # just Table 1 ratios
//	spillbench -table 2           # just Table 2 placement times
//	spillbench -bench gcc         # a single benchmark, detailed
//	spillbench -engine tree       # measure on the legacy VM engine
//	spillbench -machines all        # sweep every machine cost preset:
//	                                # per-machine tables + crossover
//	spillbench -cpuprofile cpu.pprof
//	                                # the evaluation under the pprof
//	                                # CPU profiler
//	spillbench -tier                # tiered pipeline benchmark: static
//	                                # estimate placement vs measured
//	                                # re-placement on the hostile suite
//	spillbench -tier -memprofile mem.pprof
//	                                # heap profile of the run, tier
//	                                # boundary recompiles included
//	spillbench -crossover           # crossover suite: uniform vs
//	                                # machine-priced allocation per
//	                                # preset, winner flips reported
//	spillbench -alloc-machine       # price the allocator's spill
//	                                # choices with the machine preset
//
// The committed BENCH_*.json records are written by cmd/benchdiff
// -write-fresh, which runs each record's standing configuration.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	figure := flag.Int("figure", 0, "print only this figure (5)")
	table := flag.Int("table", 0, "print only this table (1 or 2)")
	only := flag.String("bench", "", "run a single benchmark")
	align := flag.Bool("align", false, "run jump alignment before placement (extension)")
	jobs := flag.Int("j", 0, "worker pool size for sharded evaluation (0 = GOMAXPROCS, 1 = serial)")
	irgenN := flag.Int("irgen", 0, "append this many random irgen scenario families to the suite")
	irgenSeed := flag.Uint64("irgen-seed", 1, "first seed of the appended irgen families")
	engine := flag.String("engine", "regcode", "VM engine for the measurement runs: regcode|tree")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the measurement run to this file")
	reps := flag.Int("reps", 3, "with -tier: repetitions per benchmark (each timing keeps the minimum)")
	machines := flag.String("machines", "", "sweep these machine cost presets (comma-separated, or \"all\") and print per-machine tables plus the crossover report")
	tierBench := flag.Bool("tier", false, "benchmark the tiered pipeline (static-estimate placement vs measured re-placement on the estimator-hostile suite)")
	quantum := flag.Int64("quantum", 2000, "with -tier: tier-0 step quantum before the measured re-placement")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile of the measurement run to this file")
	crossover := flag.Bool("crossover", false, "run the crossover suite (irgen.Crossover seeds) per preset under both allocation modes and report winner flips")
	allocMachine := flag.Bool("alloc-machine", false, "price the allocator's spill choices with the machine's cost surface instead of uniform weights (single-preset sweeps and the default tables)")
	flag.Parse()

	eng, err := vm.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spillbench: %v\n", err)
		os.Exit(2)
	}

	// The profile brackets the measurement work itself: it starts after
	// flag validation and stops when the chosen mode finishes. Error
	// paths exit without a profile — there is nothing worth profiling in
	// a failed run.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spillbench: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "spillbench: %v\n", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "spillbench: %v\n", err)
			}
		}()
	}

	// The heap profile is written when the chosen mode returns
	// normally, so it captures that mode's allocations — for -tier,
	// the tier-boundary recompiles included. Error paths os.Exit and
	// skip it, same as -cpuprofile.
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "spillbench: %v\n", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "spillbench: %v\n", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "spillbench: %v\n", err)
			}
		}()
	}

	suite := func() []bench.Entry {
		var entries []bench.Entry
		for _, p := range workload.SPECInt2000() {
			entries = append(entries, bench.EntryFor(p))
		}
		entries = append(entries, bench.GeneratedSuite(*irgenSeed, *irgenN)...)
		// The filter sees the full suite, so -bench selects generated
		// entries (e.g. "irgen-3") as readily as SPEC stand-ins.
		if *only != "" {
			var filtered []bench.Entry
			for _, e := range entries {
				if e.Name == *only {
					filtered = append(filtered, e)
				}
			}
			if len(filtered) == 0 {
				fmt.Fprintf(os.Stderr, "spillbench: unknown benchmark %q\n", *only)
				os.Exit(1)
			}
			entries = filtered
		}
		return entries
	}

	if *crossover {
		n := *irgenN
		if n <= 0 {
			n = 10
		}
		rec, err := bench.RunCrossover(bench.CrossoverSuite(*irgenSeed, n), machine.Presets(),
			bench.Options{Parallelism: *jobs, Engine: eng})
		if err != nil {
			fmt.Fprintf(os.Stderr, "spillbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%-14s %-14s %-22s %-22s %s\n", "benchmark", "machine", "uniform best", "machine best", "winner")
		for _, b := range rec.Benches {
			for _, row := range b.Presets {
				fmt.Printf("%-14s %-14s %-13s %8d %-13s %8d %s/%s\n",
					b.Name, row.Machine, row.UniformBest, row.UniformOverhead,
					row.MachineBest, row.MachineOverhead, row.WinnerAlloc, row.WinnerStrategy)
			}
			if b.StrategyFlip || b.AllocFlip {
				fmt.Printf("%-14s winner flips across presets (strategy=%v alloc=%v)\n", b.Name, b.StrategyFlip, b.AllocFlip)
			}
		}
		fmt.Printf("%d of %d benchmarks flip their winner across presets\n", rec.Flips, len(rec.Benches))
		return
	}

	if *tierBench {
		n := *irgenN
		if n <= 0 {
			n = 12
		}
		rec, err := bench.BenchTiered(bench.HostileSuite(*irgenSeed, n), *quantum, *reps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spillbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%-14s %12s %12s %8s %6s %9s %14s\n",
			"machine", "static", "tiered", "gain", "bnds", "replaced", "instrs/s")
		for _, m := range rec.Machines {
			fmt.Printf("%-14s %12d %12d %7.3fx %6d %9d %14.0f\n",
				m.Machine, m.StaticOverhead, m.TieredOverhead, m.Gain, m.Boundaries, m.Replaced, m.InstrsPerSec)
		}
		fmt.Printf("best gain %.3fx at quantum %d over %d hostile programs\n",
			rec.BestGain, rec.Quantum, len(rec.Benchmarks))
		return
	}

	// The paper's evaluation is the sweep on its unit-cost machine, the
	// classic preset; -machines swaps in other presets and the
	// per-machine report.
	presets := *machines
	if presets == "" {
		presets = "classic"
	}
	descs, err := machine.ParsePresets(presets)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spillbench: %v\n", err)
		os.Exit(2)
	}
	sw, err := bench.RunSweep(suite(), descs, bench.Options{Align: *align, Parallelism: *jobs, Engine: eng, MachineAlloc: *allocMachine})
	if err != nil {
		fmt.Fprintf(os.Stderr, "spillbench: %v\n", err)
		os.Exit(1)
	}

	switch {
	case *machines != "":
		fmt.Print(bench.SweepTables(sw))
	case *figure == 5:
		fmt.Print(bench.Figure5(sw))
	case *table == 1:
		fmt.Print(bench.Table1(sw))
	case *table == 2:
		fmt.Print(bench.Table2(sw))
	default:
		fmt.Print(bench.Figure5(sw))
		fmt.Println()
		fmt.Print(bench.Table1(sw))
		fmt.Println()
		fmt.Print(bench.Table2(sw))
		fmt.Println()
		fmt.Print(bench.Totals(sw))
		if *only != "" {
			fmt.Println()
			for _, r := range sw.Results {
				fmt.Printf("%s: %d procedures, %d instructions, %d spilled vregs, result %d\n",
					r.Name, r.Procedures, r.Instrs, r.SpilledVregs, r.ReturnValue)
			}
		}
	}
}
