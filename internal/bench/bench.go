// Package bench runs the paper's evaluation end to end: generate a
// benchmark program, profile it by execution, register-allocate it
// once, apply each callee-saved spill placement strategy to identical
// clones, execute each clone under convention checking, and report the
// measured dynamic spill overhead and placement time. RunSweep is the
// one driver: on the paper's unit-cost classic preset it yields
// Figure 5 and Tables 1-2, and across several machine presets the
// crossover report.
package bench

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/strategy"
	"repro/internal/vm"
	"repro/internal/workload"
)

// Strategy names a callee-saved spill placement technique.
type Strategy int

const (
	// Baseline saves at procedure entry and restores at each exit.
	Baseline Strategy = iota
	// Shrinkwrap is Chow's original technique.
	Shrinkwrap
	// Optimized is the paper's hierarchical algorithm with the
	// jump-edge cost model (the configuration evaluated in the paper).
	Optimized
	// OptimizedExec is the hierarchical algorithm under the execution
	// count cost model, realized with jump blocks. The paper could not
	// evaluate this configuration ("spill instructions placed on jump
	// edges have no physical memory allocated to them" in GCC); this
	// reproduction can, so it is included as an ablation of the cost
	// model choice.
	OptimizedExec
	numStrategies
)

// Strategies lists all strategies in display order.
var Strategies = []Strategy{Baseline, Shrinkwrap, Optimized, OptimizedExec}

// String names the strategy as in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case Baseline:
		return "Baseline"
	case Shrinkwrap:
		return "Shrinkwrap"
	case Optimized:
		return "Optimized"
	case OptimizedExec:
		return "OptimizedExec"
	}
	return "?"
}

// technique maps the figure-label enum to the shared placement
// dispatch in internal/strategy.
func (s Strategy) technique() strategy.Strategy {
	switch s {
	case Shrinkwrap:
		return strategy.Shrinkwrap
	case Optimized:
		return strategy.HierarchicalJump
	case OptimizedExec:
		return strategy.HierarchicalExec
	}
	return strategy.EntryExit
}

// Options tweaks the pipeline.
type Options struct {
	// Align runs the jump-alignment layout pass (internal/layout) on
	// every procedure after allocation, before placement — the
	// configuration the paper mentions as making the jump edge cost
	// model more accurate.
	Align bool
	// Parallelism bounds the worker pools of the concurrent stages:
	// benchmark sharding in RunSweep, the per-strategy VM
	// measurement fan-out, and per-function allocation and placement.
	// Only one level fans out at a time (benchmarks when there are
	// several, strategies/functions otherwise), so pools never
	// multiply. Zero or negative means GOMAXPROCS; 1 forces the fully
	// serial path. All measured counts are deterministic and
	// identical for any value. PlacementTime is wall-clock: placement
	// of one benchmark never runs concurrently with another strategy's
	// placement of the same benchmark, but concurrent benchmarks can
	// still contend — for paper-grade Table 2 timings use 1.
	Parallelism int
	// Engine selects the VM engine for the measurement runs (default
	// vm.EngineRegcode; vm.EngineTree is the legacy differential
	// reference). Measured counts are engine-independent — the parity
	// tests prove it — only wall-clock time changes.
	Engine vm.Engine
	// MachineAlloc prices the allocator's spill choices with the
	// machine's cost surface (regalloc.Options.MachineCosts). In
	// RunSweep it requires a single-machine sweep, because the
	// allocation then depends on the preset; RunCrossover compares it
	// against the uniform allocation preset by preset.
	MachineAlloc bool
}

// Entry is one measurable program: a name for the reports and a
// generator producing a fresh virtual-register program ready for
// profiling. The synthetic SPEC stand-ins and irgen's random scenario
// families both enter the harness this way.
type Entry struct {
	Name string
	Gen  func() *ir.Program
}

// EntryFor wraps a synthetic SPEC benchmark description as an Entry.
func EntryFor(p workload.BenchParams) Entry {
	return Entry{Name: p.Name, Gen: func() *ir.Program { return workload.Generate(p) }}
}

// GeneratedSuite returns n random scenario-family entries from the
// irgen generator, seeds base..base+n-1, so fuzz-grade program shapes
// can join the measured suite next to the SPEC stand-ins.
func GeneratedSuite(base uint64, n int) []Entry {
	if n < 0 {
		n = 0
	}
	out := make([]Entry, n)
	for i := range out {
		seed := base + uint64(i)
		out[i] = Entry{
			Name: "irgen-" + fmt.Sprint(seed),
			Gen:  func() *ir.Program { return irgen.Generate(seed, irgen.Default()) },
		}
	}
	return out
}

// computeSets computes and validates one strategy's placement for
// every function in funcs (the shared allocated program), returning
// the per-function sets and the time spent computing them (the
// strategy's incremental compile time, Table 2). Procedures are
// independent, so they fan out across a bounded pool; the returned
// duration is the sum of per-procedure compute times, matching the
// serial accounting. Analyses shared through cache are charged to the
// first strategy that builds them, so the timing column keeps its
// incremental-compile-time meaning under sharing.
func computeSets(funcs []*ir.Func, s Strategy, parallelism int, cache *analysis.Cache, d *machine.Desc) ([][]*core.Set, time.Duration, error) {
	sets := make([][]*core.Set, len(funcs))
	var mu sync.Mutex
	var elapsed time.Duration
	err := par.Do(len(funcs), parallelism, func(i int) error {
		f := funcs[i]
		info := cache.For(f)
		start := time.Now()
		fs, err := strategy.ComputeCachedFor(f, s.technique(), info, d)
		if err != nil {
			return err
		}
		d := time.Since(start)
		mu.Lock()
		elapsed += d
		mu.Unlock()
		if err := core.ValidateSetsLive(f, fs, info.Liveness()); err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		sets[i] = fs
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return sets, elapsed, nil
}

// applySets translates the sets computed on the shared base onto the
// strategy's clone and applies them there.
func applySets(clone *ir.Program, funcs []*ir.Func, sets [][]*core.Set, parallelism int) error {
	return par.Do(len(funcs), parallelism, func(i int) error {
		f := funcs[i]
		cf := clone.Func(f.Name)
		cs, err := core.TranslateSets(sets[i], f, cf)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		if err := core.Apply(cf, cs); err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
		return nil
	})
}
