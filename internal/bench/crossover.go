package bench

// crossover.go measures where machine presets disagree: the same
// crossover scenario programs (irgen.Crossover — register-pressure
// plateaus, cold diamonds feeding hot back edges, fall-through-split
// loop nests) are evaluated per preset under both allocation modes,
// uniform spill weights vs machine-priced spill weights, across every
// placement strategy. The record keeps, per benchmark and preset, the
// best strategy under each allocation mode and which combination wins
// — so a winner that flips between presets (a different strategy, or
// a different allocation mode) is a measured fact the CI gate can
// hold on to. Overheads are deterministic dynamic counts.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/machine"
)

// CrossoverSuite returns n crossover scenario entries, seeds
// base..base+n-1 — the irgen family built so the winning strategy or
// allocation mode depends on the machine preset.
func CrossoverSuite(base uint64, n int) []Entry {
	if n < 0 {
		n = 0
	}
	out := make([]Entry, n)
	for i := range out {
		seed := base + uint64(i)
		out[i] = Entry{
			Name: "crossover-" + fmt.Sprint(seed),
			Gen:  func() *ir.Program { return irgen.Generate(seed, irgen.Crossover()) },
		}
	}
	return out
}

// CrossoverStrategyCell is one strategy's measured weighted overhead
// under both allocation modes, for one (benchmark, preset) pair.
type CrossoverStrategyCell struct {
	Strategy string `json:"strategy"`
	Uniform  int64  `json:"uniform"`
	Machine  int64  `json:"machine"`
}

// CrossoverPresetRow is one preset's verdict on one benchmark.
type CrossoverPresetRow struct {
	Machine    string                  `json:"machine"`
	Strategies []CrossoverStrategyCell `json:"strategies"`
	// UniformBest/MachineBest are each allocation mode's best strategy
	// (lowest measured weighted overhead, ties to the simpler
	// technique) and its overhead.
	UniformBest     string `json:"uniform_best"`
	UniformOverhead int64  `json:"uniform_overhead"`
	MachineBest     string `json:"machine_best"`
	MachineOverhead int64  `json:"machine_overhead"`
	// WinnerAlloc and WinnerStrategy name the overall winner; an
	// overhead tie goes to the uniform allocation (the paper's mode).
	WinnerAlloc    string `json:"winner_alloc"`
	WinnerStrategy string `json:"winner_strategy"`
}

// CrossoverBench is one benchmark's preset-by-preset outcome.
type CrossoverBench struct {
	Name    string               `json:"name"`
	Presets []CrossoverPresetRow `json:"presets"`
	// StrategyFlip: the winning strategy differs between two presets.
	// AllocFlip: the winning allocation mode differs between two
	// presets.
	StrategyFlip bool `json:"strategy_flip"`
	AllocFlip    bool `json:"alloc_flip"`
}

// CrossoverRecord is the serialized BENCH_crossover.json shape. Every
// overhead is a deterministic dynamic count, so the CI gate compares
// them exactly; Flips is the suite's reason to exist and the gate
// requires it to stay >= 1.
type CrossoverRecord struct {
	Suite      string           `json:"suite"`
	Benchmarks []string         `json:"benchmarks"`
	Machines   []string         `json:"machines"`
	GoVersion  string           `json:"go_version"`
	Date       string           `json:"date"`
	Flips      int              `json:"flips"`
	Benches    []CrossoverBench `json:"benches"`
}

// RunCrossover evaluates the entries under every preset in both
// allocation modes: one uniform multi-machine sweep (shared
// allocation, repriced per preset) plus one machine-priced
// single-preset sweep per machine. Each benchmark's return value must
// agree across every mode and preset — machine-priced allocation may
// move spills, never results.
func RunCrossover(entries []Entry, machines []*machine.Desc, opts Options) (*CrossoverRecord, error) {
	if len(machines) == 0 {
		machines = machine.Presets()
	}
	uopts := opts
	uopts.MachineAlloc = false
	uni, err := RunSweep(entries, machines, uopts)
	if err != nil {
		return nil, fmt.Errorf("crossover uniform sweep: %w", err)
	}
	per := make([]*Sweep, len(machines))
	for mi, d := range machines {
		mopts := opts
		mopts.MachineAlloc = true
		sw, err := RunSweep(entries, []*machine.Desc{d}, mopts)
		if err != nil {
			return nil, fmt.Errorf("crossover machine sweep @%s: %w", d.Name, err)
		}
		per[mi] = sw
	}

	rec := &CrossoverRecord{
		Suite:     "irgen crossover scenario families",
		GoVersion: runtime.Version(),
		Date:      time.Now().UTC().Format("2006-01-02"),
	}
	for _, d := range machines {
		rec.Machines = append(rec.Machines, d.Name)
	}
	for i, e := range entries {
		rec.Benchmarks = append(rec.Benchmarks, e.Name)
		b := CrossoverBench{Name: e.Name}
		for mi, d := range machines {
			u := uni.Results[i]
			m := per[mi].Results[i]
			if m.ReturnValue != u.ReturnValue {
				return nil, fmt.Errorf("crossover %s@%s: machine alloc computed %d, uniform %d",
					e.Name, d.Name, m.ReturnValue, u.ReturnValue)
			}
			row := CrossoverPresetRow{Machine: d.Name}
			ubest, mbest := u.Winner(mi), m.Winner(0)
			for _, s := range Strategies {
				row.Strategies = append(row.Strategies, CrossoverStrategyCell{
					Strategy: s.String(),
					Uniform:  u.Cells[mi][s].WeightedOverhead,
					Machine:  m.Cells[0][s].WeightedOverhead,
				})
			}
			row.UniformBest = ubest.String()
			row.UniformOverhead = u.Cells[mi][ubest].WeightedOverhead
			row.MachineBest = mbest.String()
			row.MachineOverhead = m.Cells[0][mbest].WeightedOverhead
			row.WinnerAlloc, row.WinnerStrategy = crossoverWinner(&row)
			b.Presets = append(b.Presets, row)
		}
		for _, row := range b.Presets[1:] {
			if row.WinnerStrategy != b.Presets[0].WinnerStrategy {
				b.StrategyFlip = true
			}
			if row.WinnerAlloc != b.Presets[0].WinnerAlloc {
				b.AllocFlip = true
			}
		}
		if b.StrategyFlip || b.AllocFlip {
			rec.Flips++
		}
		rec.Benches = append(rec.Benches, b)
	}
	return rec, nil
}

// crossoverWinner names the row's overall winner; ties go to the
// uniform allocation, the paper's mode.
func crossoverWinner(row *CrossoverPresetRow) (alloc, strategy string) {
	if row.MachineOverhead < row.UniformOverhead {
		return "machine", row.MachineBest
	}
	return "uniform", row.UniformBest
}
