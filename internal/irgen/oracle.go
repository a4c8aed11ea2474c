package irgen

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
)

// Options configures one differential check.
type Options struct {
	// Args are the program arguments, used for both the profiling run
	// and every measurement run (the cost-model exactness invariant
	// needs the two to see identical control flow). Defaults to {0}.
	Args []int64
	// Parallelism bounds the per-function fan-out of allocation.
	// Zero or negative means GOMAXPROCS.
	Parallelism int
	// MaxSteps bounds every VM run, so a non-terminating candidate
	// (the reducer creates them) fails fast. Zero means 1<<26.
	MaxSteps int64
	// ExecModel and JumpModel override the cost model driving the
	// HierarchicalExec / HierarchicalJump placements. The oracle
	// always *scores* with the paper's models, so a broken override
	// surfaces as an optimality violation — tests use this to prove
	// the harness can fail. Nil means the paper's models.
	ExecModel core.CostModel
	JumpModel core.CostModel
	// Engine selects the VM engine for the profiling and measurement
	// runs (default regcode; the legacy tree interpreter is the
	// differential reference).
	Engine vm.Engine
}

// Violation is one broken invariant.
type Violation struct {
	// Invariant names the broken property: "verify-input", "profile",
	// "alloc", "verify-placed", "flow-placed", "roundtrip", "run",
	// "value", "exec-optimal", "jump-vs-seed", "jump-vs-shrinkwrap",
	// "jump-vs-baseline", "exact-cost", "exact-cost-machine".
	Invariant string
	// Strategy is the placement the violation concerns (meaningful for
	// per-strategy invariants; EntryExit otherwise).
	Strategy strategy.Strategy
	// Detail describes the violation.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s[%s]: %s", v.Invariant, v.Strategy, v.Detail)
}

// Report is the outcome of one differential check.
type Report struct {
	Violations []Violation

	// Value is the program result under the baseline strategy.
	Value int64
	// Overhead is the measured dynamic spill overhead per strategy.
	Overhead [strategy.Count]int64
	// Instrs is the baseline run's dynamic instruction count.
	Instrs int64
	// CalleeSavedFuncs counts functions whose allocation uses
	// callee-saved registers — zero means the check was trivial.
	CalleeSavedFuncs int
	// Analysis holds the build counters of the check's private
	// analysis cache, which the five strategies share: each analysis
	// is built at most once per placed function.
	Analysis analysis.Counts
}

// Failed reports whether any invariant broke.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

func (r *Report) violate(inv string, s strategy.Strategy, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Invariant: inv, Strategy: s, Detail: fmt.Sprintf(format, args...),
	})
}

// CheckSource parses src and runs the differential oracle on it.
func CheckSource(src string, opts Options) *Report {
	prog, err := irtext.Parse(src)
	if err != nil {
		r := &Report{}
		r.violate("verify-input", strategy.EntryExit, "parse: %v", err)
		return r
	}
	return Check(prog, opts)
}

// computeSets is strategy.ComputeCachedFor on the paper's machine,
// except that a hierarchical strategy whose model opts overrides runs
// the traversal under the override.
func computeSets(f *ir.Func, s strategy.Strategy, info *analysis.Info, opts Options) ([]*core.Set, error) {
	m := opts.JumpModel
	if s == strategy.HierarchicalExec {
		m = opts.ExecModel
	}
	if !s.IsHierarchical() || m == nil {
		return strategy.ComputeCachedFor(f, s, info, nil)
	}
	t, err := info.PST()
	if err != nil {
		return nil, err
	}
	sets, _, err := core.Hierarchical(f, t, info.ShrinkwrapSeed(), m)
	return sets, err
}

// Check runs every placement strategy on clones sharing one register
// allocation and verifies the cross-strategy invariants:
//
//   - structural: ir.VerifyProgram and profile flow conservation hold
//     after placement, and the placed program survives a
//     Parse(Print(p)) round trip byte-identically;
//   - semantic: every strategy computes the same program result, and
//     no run violates the callee-saved convention (the VM enforces it);
//   - optimality: HierarchicalExec's placement costs no more than any
//     other strategy's under the execution count model (the paper's
//     optimality theorem), per function;
//   - seed dominance: HierarchicalJump's modeled jump-edge cost never
//     exceeds its seed's (the traversal only improves the seed);
//   - measurement: HierarchicalJump's measured overhead never exceeds
//     Shrinkwrap's or EntryExit's (the paper's headline claim);
//   - exactness: EntryExit's modeled jump-edge cost equals its
//     measured save/restore overhead (no jump blocks, so model and
//     machine must agree instruction for instruction) — and the same
//     agreement must hold cycle for cycle under every machine cost
//     preset, pricing the model with core.MachineModel and the
//     measured counts with the preset's cost surface.
//
// The input program is not mutated.
func Check(prog *ir.Program, opts Options) *Report {
	r := &Report{}
	if len(opts.Args) == 0 {
		opts.Args = []int64{0}
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = 1 << 26
	}
	mach := machine.PARISC()

	base := prog.Clone()
	if err := ir.VerifyProgram(base); err != nil {
		r.violate("verify-input", strategy.EntryExit, "%v", err)
		return r
	}
	if !roundTrip(base) {
		r.violate("roundtrip", strategy.EntryExit, "unplaced program does not round-trip")
	}

	if _, err := profile.Collect(base, vm.Config{MaxSteps: opts.MaxSteps, Engine: opts.Engine}, opts.Args...); err != nil {
		r.violate("profile", strategy.EntryExit, "%v", err)
		return r
	}
	if err := profile.Consistent(base); err != nil {
		r.violate("profile", strategy.EntryExit, "%v", err)
		return r
	}

	if _, err := regalloc.AllocateProgram(base, mach, opts.Parallelism, regalloc.Options{}); err != nil {
		r.violate("alloc", strategy.EntryExit, "%v", err)
		return r
	}
	placed := strategy.NeedsPlacement(base)
	r.CalleeSavedFuncs = len(placed)

	// Per-strategy, per-function modeled costs under the paper's two
	// models, scored on the sets each strategy actually applies.
	execCost := make([]map[string]int64, strategy.Count)
	jumpCost := make([]map[string]int64, strategy.Count)
	var values [strategy.Count]int64
	var ran [strategy.Count]bool

	// EntryExit's modeled cost under every machine cost preset, summed
	// across functions: the per-preset exactness check compares it to
	// the measured counts priced with the same preset.
	presets := machine.Presets()
	presetModeled := make([]int64, len(presets))

	// All five strategies compute their sets on the shared allocated
	// base through one analysis cache — liveness, dominators, loops,
	// PST, and the shrink-wrap seed are built once per function instead
	// of once per strategy — then each strategy's sets are translated
	// onto its own clone for the mutation and the measurement run.
	cache := analysis.NewCache()
	for _, s := range strategy.All {
		execCost[s] = make(map[string]int64, len(placed))
		jumpCost[s] = make(map[string]int64, len(placed))
		clone := base.Clone()
		ok := true
		for _, f := range placed {
			info := cache.For(f)
			sets, err := computeSets(f, s, info, opts)
			if err != nil {
				r.violate("verify-placed", s, "%s: compute: %v", f.Name, err)
				ok = false
				break
			}
			execCost[s][f.Name] = core.TotalCost(core.ExecCountModel{}, sets)
			jumpCost[s][f.Name] = core.TotalCost(core.JumpEdgeModel{}, sets)
			if s == strategy.EntryExit {
				for pi, d := range presets {
					presetModeled[pi] += core.TotalCost(core.MachineModel{Desc: d, ChargeJumps: true}, sets)
				}
			}
			if err := core.ValidateSetsLive(f, sets, info.Liveness()); err != nil {
				r.violate("verify-placed", s, "%s: %v", f.Name, err)
				ok = false
				break
			}
			cf := clone.Func(f.Name)
			csets, err := core.TranslateSets(sets, f, cf)
			if err != nil {
				r.violate("verify-placed", s, "%s: translate: %v", f.Name, err)
				ok = false
				break
			}
			if err := core.Apply(cf, csets); err != nil {
				r.violate("verify-placed", s, "%s: apply: %v", f.Name, err)
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if err := ir.VerifyProgram(clone); err != nil {
			r.violate("verify-placed", s, "%v", err)
			continue
		}
		if err := profile.Consistent(clone); err != nil {
			r.violate("flow-placed", s, "%v", err)
		}
		if !roundTrip(clone) {
			r.violate("roundtrip", s, "placed program does not round-trip")
		}
		m := vm.New(clone, vm.Config{Machine: mach, MaxSteps: opts.MaxSteps, Engine: opts.Engine})
		v, err := m.Run(opts.Args...)
		if err != nil {
			r.violate("run", s, "%v", err)
			continue
		}
		values[s] = v
		ran[s] = true
		r.Overhead[s] = m.Stats.Overhead()
		if s == strategy.EntryExit {
			r.Value = v
			r.Instrs = m.Stats.Instrs

			// Exactness: entry/exit placement has no jump blocks, so
			// its modeled jump-edge cost is pure save/restore weight
			// and must equal the measured dynamic count.
			var modeled int64
			for _, c := range jumpCost[s] {
				modeled += c
			}
			measured := m.Stats.Saves + m.Stats.Restores + m.Stats.JumpBlockJmps
			if modeled != measured {
				r.violate("exact-cost", s, "modeled %d != measured %d", modeled, measured)
			}

			// The same exactness must hold under every machine cost
			// preset: the preset-priced model on one side, the measured
			// class counts priced with the preset's cost surface on the
			// other. A model and a machine that disagree on any latency
			// (or on the dual-issue rounding) diverge here.
			for pi, d := range presets {
				pm := m.Stats.SaveRestoreCost(d.Costs)
				if presetModeled[pi] != pm {
					r.violate("exact-cost-machine", s, "machine %s: modeled %d != measured %d",
						d.Name, presetModeled[pi], pm)
				}
			}
		}
	}
	r.Analysis = cache.Counts()

	// Cross-strategy invariants need the runs they compare.
	for _, s := range strategy.All {
		if s != strategy.EntryExit && ran[s] && ran[strategy.EntryExit] && values[s] != values[strategy.EntryExit] {
			r.violate("value", s, "computed %d, want %d", values[s], values[strategy.EntryExit])
		}
	}
	he, hj := strategy.HierarchicalExec, strategy.HierarchicalJump
	for _, f := range placed {
		for _, s := range strategy.All {
			if s == he {
				continue
			}
			if ec, ok := execCost[s][f.Name]; ok && execCost[he][f.Name] > ec {
				r.violate("exec-optimal", s, "%s: hierarchical-exec costs %d under exec model, %s costs %d",
					f.Name, execCost[he][f.Name], s, ec)
			}
		}
		if sc, ok := jumpCost[strategy.ShrinkwrapSeed][f.Name]; ok && jumpCost[hj][f.Name] > sc {
			r.violate("jump-vs-seed", hj, "%s: hierarchical-jump costs %d under jump model, seed costs %d",
				f.Name, jumpCost[hj][f.Name], sc)
		}
	}
	if ran[hj] && ran[strategy.Shrinkwrap] && r.Overhead[hj] > r.Overhead[strategy.Shrinkwrap] {
		r.violate("jump-vs-shrinkwrap", hj, "measured overhead %d > shrinkwrap's %d",
			r.Overhead[hj], r.Overhead[strategy.Shrinkwrap])
	}
	if ran[hj] && ran[strategy.EntryExit] && r.Overhead[hj] > r.Overhead[strategy.EntryExit] {
		r.violate("jump-vs-baseline", hj, "measured overhead %d > entry/exit's %d",
			r.Overhead[hj], r.Overhead[strategy.EntryExit])
	}
	return r
}

// roundTrip reports whether the program survives Print -> Parse ->
// Print byte-identically.
func roundTrip(prog *ir.Program) bool {
	s1 := irtext.Print(prog)
	p2, err := irtext.Parse(s1)
	if err != nil {
		return false
	}
	return irtext.Print(p2) == s1
}
