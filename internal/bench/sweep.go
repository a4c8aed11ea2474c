package bench

// sweep.go runs the evaluation across machine descriptions: every
// strategy placed and measured under every machine cost preset, all
// presets sharing one register allocation and one analysis cache per
// benchmark. The paper evaluates one machine, the unit-cost classic
// preset, and its Figure 5 and Tables 1-2 are that one-machine sweep;
// across presets the sweep shows where the paper's claim — optimal
// placement beats shrink-wrapping and entry/exit placement — holds and
// where the winner crosses over as the jump:spill latency ratio moves.

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/layout"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
)

// SweepCell is one (benchmark, machine, strategy) measurement.
type SweepCell struct {
	// WeightedOverhead is the measured overhead priced with the
	// machine's cost surface (vm.Stats.WeightedOverhead).
	WeightedOverhead int64
	// Modeled is the placement's predicted cost under the machine's
	// jump-edge model, before Apply realizes it.
	Modeled int64
	// PlacementTime is the compute time of this strategy's sets under
	// this machine (analyses shared through the benchmark's cache are
	// charged to whichever machine/strategy builds them first).
	PlacementTime time.Duration
	// Stats holds the measurement run's full VM execution counters
	// (deep-copied, so concurrent runs never share a Calls map).
	Stats vm.Stats
}

// SweepBench holds one benchmark's cells, indexed [machine][strategy].
type SweepBench struct {
	Name        string
	Cells       [][numStrategies]SweepCell
	ReturnValue int64
	// Procedures and Instrs describe the allocated program.
	Procedures int
	Instrs     int
	// SpilledVregs counts allocator-spilled virtual registers.
	SpilledVregs int
}

// Ratio returns the weighted overhead of strategy s under machine mi
// as a percentage of Baseline's.
func (r *SweepBench) Ratio(mi int, s Strategy) float64 {
	c := &r.Cells[mi]
	if c[Baseline].WeightedOverhead == 0 {
		return 100
	}
	return 100 * float64(c[s].WeightedOverhead) / float64(c[Baseline].WeightedOverhead)
}

// Winner returns the benchmark's winning strategy under machine mi:
// the lowest measured weighted overhead, ties to the earlier strategy
// in declaration order (the simpler technique).
func (r *SweepBench) Winner(mi int) Strategy {
	w := Baseline
	for _, s := range Strategies {
		if r.Cells[mi][s].WeightedOverhead < r.Cells[mi][w].WeightedOverhead {
			w = s
		}
	}
	return w
}

// Sweep is the outcome of a multi-machine evaluation.
type Sweep struct {
	// Machines are the swept descriptions, in input order.
	Machines []*machine.Desc
	// Results has one entry per benchmark, in input order.
	Results []*SweepBench
	// Builds sums the analysis build counters across every benchmark's
	// cache: with Functions functions placed in total, each counter is
	// at most Functions no matter how many machines were swept — the
	// proof that machine descriptions share analyses instead of
	// rebuilding them.
	Builds analysis.Counts
	// Functions counts the functions placement visited, summed across
	// benchmarks.
	Functions int
}

// MachineTotal aggregates one machine's suite-wide numbers.
type MachineTotal struct {
	Machine   *machine.Desc
	Overhead  [numStrategies]int64
	Modeled   [numStrategies]int64
	Placement [numStrategies]time.Duration
	// Winner is the strategy with the lowest suite-total weighted
	// overhead on this machine (ties go to the earlier strategy in
	// declaration order, i.e. the simpler technique).
	Winner Strategy
}

// MachineTotals sums the per-benchmark cells into per-machine totals.
func (sw *Sweep) MachineTotals() []MachineTotal {
	out := make([]MachineTotal, len(sw.Machines))
	for mi, d := range sw.Machines {
		t := &out[mi]
		t.Machine = d
		for _, r := range sw.Results {
			for _, s := range Strategies {
				t.Overhead[s] += r.Cells[mi][s].WeightedOverhead
				t.Modeled[s] += r.Cells[mi][s].Modeled
				t.Placement[s] += r.Cells[mi][s].PlacementTime
			}
		}
		t.Winner = Baseline
		for _, s := range Strategies {
			if t.Overhead[s] < t.Overhead[t.Winner] {
				t.Winner = s
			}
		}
	}
	return out
}

// RunSweep evaluates every strategy under every machine description
// over the given entries; an empty list sweeps every preset, and the
// classic preset alone is the paper's evaluation. All machines must
// share one register file (machine.Presets do): each benchmark is
// generated, profiled, and register-allocated once, and every
// (machine, strategy) placement computes its sets through that
// benchmark's single analysis.Cache — liveness, dominators, loops,
// PST, and the shrink-wrap seed are built at most once per function
// for the whole sweep. Only the hierarchical traversals (which read
// the machine's cost model) and the measurement runs repeat per
// machine. Entries are sharded across the pool and their results kept
// in input order, so every measured count is identical for any
// Options.Parallelism; when several entries run concurrently, each
// runs its inner stages serially.
func RunSweep(entries []Entry, machines []*machine.Desc, opts Options) (*Sweep, error) {
	if len(machines) == 0 {
		machines = machine.Presets()
	}
	if !machine.SameRegisterFile(machines) {
		return nil, fmt.Errorf("bench: swept machines must share a register file")
	}
	if opts.MachineAlloc && len(machines) > 1 {
		// Machine-priced allocation specializes the allocation to one
		// cost surface, which breaks the sweep's shared-allocation
		// premise. RunCrossover sweeps one preset at a time instead.
		return nil, fmt.Errorf("bench: MachineAlloc requires a single-machine sweep")
	}
	sw := &Sweep{Machines: machines, Results: make([]*SweepBench, len(entries))}
	builds := make([]analysis.Counts, len(entries))
	funcs := make([]int, len(entries))
	inner := opts
	if par.Limit(opts.Parallelism, len(entries)) > 1 {
		inner.Parallelism = 1
	}
	err := par.Do(len(entries), opts.Parallelism, func(i int) error {
		r, b, nf, err := runSweepEntry(entries[i], machines, inner)
		if err != nil {
			return err
		}
		sw.Results[i], builds[i], funcs[i] = r, b, nf
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range entries {
		sw.Builds.Liveness += builds[i].Liveness
		sw.Builds.Dom += builds[i].Dom
		sw.Builds.Loops += builds[i].Loops
		sw.Builds.PST += builds[i].PST
		sw.Builds.Seed += builds[i].Seed
		sw.Builds.Busy += builds[i].Busy
		sw.Functions += funcs[i]
	}
	return sw, nil
}

// runSweepEntry runs one benchmark through the sweep: one generate/
// profile/allocate (and align, under Options.Align), then per
// (machine, strategy) placement on clones and a measurement run per
// clone.
func runSweepEntry(e Entry, machines []*machine.Desc, opts Options) (*SweepBench, analysis.Counts, int, error) {
	prog := e.Gen()
	if _, err := profile.Collect(prog, vm.Config{Engine: opts.Engine}, 0); err != nil {
		return nil, analysis.Counts{}, 0, fmt.Errorf("sweep %s: profile: %w", e.Name, err)
	}
	if err := profile.Consistent(prog); err != nil {
		return nil, analysis.Counts{}, 0, fmt.Errorf("sweep %s: %w", e.Name, err)
	}
	allocRes, err := regalloc.AllocateProgram(prog, machines[0], opts.Parallelism, regalloc.Options{MachineCosts: opts.MachineAlloc})
	if err != nil {
		return nil, analysis.Counts{}, 0, fmt.Errorf("sweep %s: regalloc: %w", e.Name, err)
	}

	res := &SweepBench{Name: e.Name, Cells: make([][numStrategies]SweepCell, len(machines)), Procedures: len(prog.Funcs)}
	for _, f := range prog.FuncsInOrder() {
		if opts.Align {
			layout.Align(f)
		}
		res.Instrs += f.Instrs()
	}
	for _, ar := range allocRes {
		res.SpilledVregs += len(ar.Spilled)
	}
	cache := analysis.NewCache()
	funcs := strategy.NeedsPlacement(prog)

	// Placement stays serial across (machine, strategy) pairs so the
	// timing column keeps its Table 2 meaning; each placement may still
	// fan out per function. A strategy whose placement cannot depend on
	// the machine computes, applies, and executes once — its cells for
	// the other machines reprice the one measurement (pricing happens
	// after the fact, on the class counts), with the placement time
	// charged to the first machine and zero for the repriced ones.
	type run struct {
		mi    int // machine that owns the VM execution
		s     Strategy
		clone *ir.Program
		all   bool // result is repriced for every machine
	}
	var runs []run
	for mi, d := range machines {
		for _, s := range Strategies {
			if mi > 0 && !machineDependent(s, machines) {
				continue
			}
			sets, elapsed, err := computeSets(funcs, s, opts.Parallelism, cache, d)
			if err != nil {
				return nil, analysis.Counts{}, 0, fmt.Errorf("sweep %s: %s@%s: %w", e.Name, s, d.Name, err)
			}
			res.Cells[mi][s].PlacementTime = elapsed
			// The modeled cost prices the same sets with each machine's
			// jump-edge model, so it is filled for every machine the
			// placement serves.
			for pm, pd := range machines {
				if pm != mi && machineDependent(s, machines) {
					continue
				}
				model := core.MachineModel{Desc: pd, ChargeJumps: true}
				for _, fs := range sets {
					res.Cells[pm][s].Modeled += core.TotalCost(model, fs)
				}
			}
			clone := prog.Clone()
			if err := applySets(clone, funcs, sets, opts.Parallelism); err != nil {
				return nil, analysis.Counts{}, 0, fmt.Errorf("sweep %s: %s@%s: %w", e.Name, s, d.Name, err)
			}
			runs = append(runs, run{mi, s, clone, !machineDependent(s, machines)})
		}
	}

	// Measurement runs are independent (one clone, one VM each) and
	// fan out across the pool. The convention checker uses the shared
	// register file; only the pricing differs per machine.
	vals := make([]int64, len(runs))
	err = par.Do(len(runs), opts.Parallelism, func(i int) error {
		r := runs[i]
		v := vm.New(r.clone, vm.Config{Machine: machines[0], Engine: opts.Engine})
		val, err := v.Run(0)
		if err != nil {
			return fmt.Errorf("sweep %s: %s@%s run: %w", e.Name, r.s, machines[r.mi].Name, err)
		}
		vals[i] = val
		st := v.Stats.Snapshot()
		for pm, pd := range machines {
			if pm == r.mi || r.all {
				res.Cells[pm][r.s].WeightedOverhead = v.Stats.WeightedOverhead(pd.Costs)
				res.Cells[pm][r.s].Stats = st
			}
		}
		return nil
	})
	if err != nil {
		return nil, analysis.Counts{}, 0, err
	}
	res.ReturnValue = vals[0]
	for i, v := range vals {
		if v != res.ReturnValue {
			return nil, analysis.Counts{}, 0, fmt.Errorf("sweep %s: %s@%s computed %d, want %d",
				e.Name, runs[i].s, machines[runs[i].mi].Name, v, res.ReturnValue)
		}
	}
	return res, cache.Counts(), len(funcs), nil
}

// machineDependent reports whether the strategy's placement can differ
// across the swept machines. The hierarchical strategies optimize the
// machine's cost model; Chow's shrink-wrapping reads only the
// machine's jump-charging verdict, so it is machine-dependent only
// when the swept machines disagree on it; entry/exit placement never
// consults a machine.
func machineDependent(s Strategy, machines []*machine.Desc) bool {
	t := s.technique()
	if t.IsHierarchical() {
		return true
	}
	if t == strategy.Shrinkwrap {
		first := machines[0].Costs.JumpCost() > 0
		for _, d := range machines[1:] {
			if (d.Costs.JumpCost() > 0) != first {
				return true
			}
		}
	}
	return false
}

// SweepStrategyRecord is one (machine, strategy) suite total in the
// serialized record.
type SweepStrategyRecord struct {
	Name             string  `json:"name"`
	WeightedOverhead int64   `json:"weighted_overhead"`
	Modeled          int64   `json:"modeled"`
	PlacementNS      int64   `json:"placement_ns"`
	RatioVsBaseline  float64 `json:"ratio_vs_baseline"`
}

// SweepMachineRecord is one machine's suite totals.
type SweepMachineRecord struct {
	Name       string                `json:"name"`
	Costs      machine.Costs         `json:"costs"`
	SpillRatio float64               `json:"jump_spill_ratio"`
	Strategies []SweepStrategyRecord `json:"strategies"`
	Winner     string                `json:"winner"`
}

// SweepRecord is the serialized BENCH_machines.json shape. The
// weighted overheads and modeled costs are deterministic — the
// benchmark programs, profiles, allocations, and placements are all
// seeded — so the CI gate compares them exactly against a fresh run;
// placement times are wall clock and informational only.
type SweepRecord struct {
	Suite      string               `json:"suite"`
	Benchmarks []string             `json:"benchmarks"`
	GoVersion  string               `json:"go_version"`
	Date       string               `json:"date"`
	Functions  int                  `json:"functions"`
	Builds     analysis.Counts      `json:"analysis_builds"`
	Machines   []SweepMachineRecord `json:"machines"`
	// BenchWinners records each benchmark's winning strategy per
	// preset and whether that winner flips anywhere across presets —
	// the per-benchmark view the suite totals above average away.
	BenchWinners []SweepBenchRecord `json:"benchmark_winners,omitempty"`
}

// SweepBenchRecord is one benchmark's per-preset winners.
type SweepBenchRecord struct {
	Name string `json:"name"`
	// Winners maps preset name to the winning strategy on this
	// benchmark (lowest measured weighted overhead, ties to the
	// simpler technique).
	Winners map[string]string `json:"winners"`
	// Flips is true when the winner is not the same strategy under
	// every preset.
	Flips bool `json:"winner_flips"`
}

// Record flattens the sweep into its serialized form.
func (sw *Sweep) Record(suiteName string) *SweepRecord {
	rec := &SweepRecord{
		Suite:     suiteName,
		GoVersion: runtime.Version(),
		Date:      time.Now().UTC().Format("2006-01-02"),
		Functions: sw.Functions,
		Builds:    sw.Builds,
	}
	for _, r := range sw.Results {
		rec.Benchmarks = append(rec.Benchmarks, r.Name)
		br := SweepBenchRecord{Name: r.Name, Winners: make(map[string]string, len(sw.Machines))}
		first := r.Winner(0)
		for mi, d := range sw.Machines {
			w := r.Winner(mi)
			br.Winners[d.Name] = w.String()
			if w != first {
				br.Flips = true
			}
		}
		rec.BenchWinners = append(rec.BenchWinners, br)
	}
	for _, t := range sw.MachineTotals() {
		mr := SweepMachineRecord{
			Name:       t.Machine.Name,
			Costs:      t.Machine.Costs,
			SpillRatio: t.Machine.Costs.SpillRatio(),
			Winner:     t.Winner.String(),
		}
		for _, s := range Strategies {
			ratio := 100.0
			if t.Overhead[Baseline] != 0 {
				ratio = 100 * float64(t.Overhead[s]) / float64(t.Overhead[Baseline])
			}
			mr.Strategies = append(mr.Strategies, SweepStrategyRecord{
				Name:             s.String(),
				WeightedOverhead: t.Overhead[s],
				Modeled:          t.Modeled[s],
				PlacementNS:      t.Placement[s].Nanoseconds(),
				RatioVsBaseline:  ratio,
			})
		}
		rec.Machines = append(rec.Machines, mr)
	}
	return rec
}
