package irgen

// parity.go cross-checks VM engines observation for observation: the
// tree interpreter is the reference, and any divergence — result
// value, error text, statistics counter, edge profile — is a
// violation. The native fuzz target (FuzzEngineParity) and the
// spillfuzz -parity sweep both drive these helpers.

import (
	"fmt"
	"reflect"

	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/tier"
	"repro/internal/vm"
)

// engineOutcome is everything observable about one engine's run.
type engineOutcome struct {
	val   int64
	err   string
	stats vm.Stats
	edges map[*ir.Edge]int64
}

func runOn(prog *ir.Program, e vm.Engine, cfg vm.Config, args []int64) engineOutcome {
	cfg.Engine = e
	m := vm.New(prog, cfg)
	val, err := m.Run(args...)
	o := engineOutcome{val: val, stats: m.Stats.Snapshot(), edges: m.EdgeCount}
	if err != nil {
		o.err = err.Error()
	}
	return o
}

// EngineParity runs prog on engine e and on the tree reference under
// cfg and returns mismatch descriptions — nil when the two agree on
// every observable.
func EngineParity(prog *ir.Program, e vm.Engine, cfg vm.Config, args []int64) []string {
	ref := runOn(prog, vm.EngineTree, cfg, args)
	got := runOn(prog, e, cfg, args)
	var ms []string
	if got.err != ref.err {
		ms = append(ms, fmt.Sprintf("%v error %q, tree %q", e, got.err, ref.err))
	}
	if got.err == "" && got.val != ref.val {
		ms = append(ms, fmt.Sprintf("%v value %d, tree %d", e, got.val, ref.val))
	}
	if !reflect.DeepEqual(got.stats, ref.stats) {
		ms = append(ms, fmt.Sprintf("%v stats %+v, tree %+v", e, got.stats, ref.stats))
	}
	if cfg.CollectEdges && !reflect.DeepEqual(got.edges, ref.edges) {
		ms = append(ms, fmt.Sprintf("%v edge counts diverge from tree", e))
	}
	return ms
}

// EngineParitySweep runs the per-seed parity battery for one engine:
// the raw program with edge collection under every given step budget
// (small budgets force mid-quantum halts), and — when the program
// profiles cleanly — the hierarchically placed program under
// callee-saved convention checking. The input program is not mutated.
func EngineParitySweep(prog *ir.Program, e vm.Engine, args []int64, budgets []int64) []string {
	var ms []string
	for _, b := range budgets {
		for _, m := range EngineParity(prog, e, vm.Config{CollectEdges: true, MaxSteps: b}, args) {
			ms = append(ms, fmt.Sprintf("budget %d: %s", b, m))
		}
	}
	placed := prog.Clone()
	if _, err := profile.Collect(placed, vm.Config{MaxSteps: 1 << 22}, args...); err != nil {
		// Programs that fail to profile (e.g. nonterminating under the
		// cap) already exercised halt parity above.
		return ms
	}
	mach := machine.PARISC()
	if _, err := regalloc.AllocateProgram(placed, mach, 1, regalloc.Options{}); err != nil {
		return append(ms, "alloc: "+err.Error())
	}
	if err := strategy.PlaceProgramFor(placed, strategy.HierarchicalJump, nil, 1, nil); err != nil {
		return append(ms, "place: "+err.Error())
	}
	for _, m := range EngineParity(placed, e, vm.Config{Machine: mach, CollectEdges: true, MaxSteps: 1 << 22}, args) {
		ms = append(ms, "placed: "+m)
	}
	return ms
}

// TierParitySweep cross-checks the tiered pipeline (internal/tier) on
// engine e against the tree reference. Both tiered runs — estimate,
// allocate, tier 0 under the quantum, measured re-align + re-place,
// tier 1 under the remaining budget — must agree on error text,
// value, every merged and per-tier statistics counter, the boundary
// counters, and, byte for byte, the final tier-1 program; the shared
// final program must then itself hold three-way engine parity (values,
// edge counts, step-limit halts) under edge collection. The input
// program is not mutated.
func TierParitySweep(prog *ir.Program, e vm.Engine, args []int64, quantum, budget int64) []string {
	ref, refErr, prepErr := tierOutcome(prog, vm.EngineTree, quantum, budget, args)
	if prepErr != nil {
		// Allocation failures are engine-independent; nothing to compare.
		return nil
	}
	got, gotErr, _ := tierOutcome(prog, e, quantum, budget, args)
	var ms []string
	if gotErr != refErr {
		ms = append(ms, fmt.Sprintf("tiered %v error %q, tree %q", e, gotErr, refErr))
	}
	if ref == nil || got == nil {
		if (ref == nil) != (got == nil) {
			ms = append(ms, fmt.Sprintf("tiered %v result presence diverges from tree", e))
		}
		return ms
	}
	if gotErr == "" && got.Value != ref.Value {
		ms = append(ms, fmt.Sprintf("tiered %v value %d, tree %d", e, got.Value, ref.Value))
	}
	if !reflect.DeepEqual(got.Stats, ref.Stats) {
		ms = append(ms, fmt.Sprintf("tiered %v stats %+v, tree %+v", e, got.Stats, ref.Stats))
	}
	if !reflect.DeepEqual(got.Tier0, ref.Tier0) || !reflect.DeepEqual(got.Tier1, ref.Tier1) {
		ms = append(ms, fmt.Sprintf("tiered %v per-tier stats diverge from tree", e))
	}
	if got.Boundary != ref.Boundary || got.Realigned != ref.Realigned || got.Replaced != ref.Replaced {
		ms = append(ms, fmt.Sprintf("tiered %v boundary %v/%d/%d, tree %v/%d/%d", e,
			got.Boundary, got.Realigned, got.Replaced, ref.Boundary, ref.Realigned, ref.Replaced))
	}
	if irtext.Print(got.Final) != irtext.Print(ref.Final) {
		ms = append(ms, fmt.Sprintf("tiered %v final program diverges from tree", e))
	}
	// The tier-1 program is Align-reordered and freshly re-placed;
	// every engine must still agree on it exactly.
	mach := machine.PARISC()
	for _, m := range EngineParity(ref.Final, e, vm.Config{Machine: mach, CollectEdges: true, MaxSteps: 1 << 22}, args) {
		ms = append(ms, "tier-1 program: "+m)
	}
	return ms
}

// tierOutcome runs the full tiered pipeline for one engine on a fresh
// clone. prepErr reports engine-independent pipeline failures
// (allocation); errStr is the tiered run's error text.
func tierOutcome(prog *ir.Program, e vm.Engine, quantum, budget int64, args []int64) (res *tier.Result, errStr string, prepErr error) {
	p := prog.Clone()
	mach := machine.PARISC()
	profile.Estimate(p, mach)
	if _, err := regalloc.AllocateProgram(p, mach, 1, regalloc.Options{}); err != nil {
		return nil, "", err
	}
	res, err := tier.Run(p, tier.Config{
		Machine:     mach,
		Strategy:    strategy.HierarchicalJump,
		Quantum:     quantum,
		MaxSteps:    budget,
		Parallelism: 1,
		Engine:      e,
	}, args...)
	if err != nil {
		errStr = err.Error()
	}
	return res, errStr, nil
}
