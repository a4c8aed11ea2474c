// Package strategy enumerates the callee-saved spill code placement
// techniques the reproduction compares and computes their save/restore
// sets. It is the single dispatch point shared by the public facade
// (spillopt), the evaluation harness (internal/bench), and the
// differential fuzzing oracle (internal/irgen): all three used to
// carry their own copy of this switch, and a strategy added or fixed
// in one place silently diverged from the others.
package strategy

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/par"
	"repro/internal/shrinkwrap"
)

// Strategy selects a placement technique.
type Strategy int

const (
	// EntryExit saves at procedure entry and restores at every exit
	// (the paper's baseline).
	EntryExit Strategy = iota
	// Shrinkwrap is Chow's original technique: artificial data flow
	// keeps spill code off jump edges.
	Shrinkwrap
	// ShrinkwrapSeed is the paper's modified shrink-wrapping (spill
	// code may sit on jump edges), the hierarchical algorithm's seed.
	ShrinkwrapSeed
	// HierarchicalExec is the paper's algorithm under the execution
	// count cost model (provably optimal under that model).
	HierarchicalExec
	// HierarchicalJump is the paper's algorithm under the jump edge
	// cost model — the configuration the paper evaluates.
	HierarchicalJump
	numStrategies
)

// All lists every strategy in declaration order.
var All = []Strategy{EntryExit, Shrinkwrap, ShrinkwrapSeed, HierarchicalExec, HierarchicalJump}

// Count is the number of strategies.
const Count = int(numStrategies)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case EntryExit:
		return "entry-exit"
	case Shrinkwrap:
		return "shrinkwrap"
	case ShrinkwrapSeed:
		return "shrinkwrap-seed"
	case HierarchicalExec:
		return "hierarchical-exec"
	case HierarchicalJump:
		return "hierarchical-jump"
	}
	return "?"
}

// IsHierarchical reports whether the strategy runs the paper's
// hierarchical traversal (and therefore consumes a cost model).
func (s Strategy) IsHierarchical() bool {
	return s == HierarchicalExec || s == HierarchicalJump
}

// ModelFor returns the cost model the strategy optimizes on machine d:
// the execution count model for HierarchicalExec, the jump edge model
// for HierarchicalJump, nil for the strategies that consume none. A
// nil machine means the paper's unit-cost models; otherwise both are
// priced with d's cost surface.
func (s Strategy) ModelFor(d *machine.Desc) core.CostModel {
	switch s {
	case HierarchicalExec:
		if d == nil {
			return core.ExecCountModel{}
		}
		return core.MachineModel{Desc: d}
	case HierarchicalJump:
		if d == nil {
			return core.JumpEdgeModel{}
		}
		return core.MachineModel{Desc: d, ChargeJumps: true}
	}
	return nil
}

// Parse maps a strategy name, as String renders it, back to the
// Strategy.
func Parse(name string) (Strategy, error) {
	for _, s := range All {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("strategy: unknown strategy %q", name)
}

// ComputeCachedFor returns the strategy's save/restore sets for one
// allocated function on machine d, without mutating the function: the
// hierarchical strategies optimize d's cost surface and Chow's
// shrink-wrapping reads d's jump-edge rule. A nil machine means the
// paper's unit-cost machine. Liveness, dominators, loops, the PST and
// the shrink-wrap seed come from info; a nil info builds private ones.
// The memoized analyses are machine-independent, so one info serves
// every strategy and every machine.
func ComputeCachedFor(f *ir.Func, s Strategy, info *analysis.Info, d *machine.Desc) ([]*core.Set, error) {
	if info == nil {
		info = analysis.For(f)
	}
	switch s {
	case EntryExit:
		return core.EntryExit(f), nil
	case Shrinkwrap:
		return shrinkwrap.ComputeWith(f, shrinkwrap.Original, shrinkwrap.Inputs{
			Liveness: info.Liveness(),
			Loops:    info.Loops(),
			Busy:     info.BusyBlocks,
			Machine:  d,
		}), nil
	case ShrinkwrapSeed:
		// The memoized sets are shared with the hierarchical seeds, so
		// hand the caller its own top-level slice.
		return append([]*core.Set(nil), info.ShrinkwrapSeed()...), nil
	case HierarchicalExec, HierarchicalJump:
		t, err := info.PST()
		if err != nil {
			return nil, err
		}
		sets, _, err := core.Hierarchical(f, t, info.ShrinkwrapSeed(), s.ModelFor(d))
		if err != nil {
			return nil, err
		}
		return sets, nil
	}
	return nil, fmt.Errorf("strategy: unknown strategy %d", int(s))
}

// PlaceCachedFor computes the strategy's sets for f on machine d (nil
// means the paper's unit-cost machine), validates them against info's
// liveness, and applies them, inserting save/restore code and jump
// blocks. A nil info builds private analyses. The returned delta lists
// the edges the edit split. Applying invalidates info, so a later
// reader rebuilds from the placed function.
func PlaceCachedFor(f *ir.Func, s Strategy, info *analysis.Info, d *machine.Desc) (*core.Delta, error) {
	if info == nil {
		info = analysis.For(f)
	}
	sets, err := ComputeCachedFor(f, s, info, d)
	if err != nil {
		return nil, err
	}
	if err := core.ValidateSetsLive(f, sets, info.Liveness()); err != nil {
		return nil, err
	}
	// Apply mutates f even on failure, so info is invalidated either way.
	delta, err := core.ApplyWithDelta(f, sets)
	info.ApplyDelta(delta)
	return delta, err
}

// PlaceProgramFor places every function of prog that uses callee-saved
// registers on machine d (nil means the paper's unit-cost machine),
// fanning the independent per-function pipelines (PST build, seeding,
// traversal, validation, apply) across a bounded worker pool;
// parallelism <= 0 means GOMAXPROCS. Each worker touches only its own
// function's Info, so one program-wide cache is safe to share across
// the pool; a nil cache builds private analyses per function. Every
// error, a recovered panic included, names its function.
func PlaceProgramFor(prog *ir.Program, s Strategy, d *machine.Desc, parallelism int, cache *analysis.Cache) error {
	funcs := NeedsPlacement(prog)
	err := par.Do(len(funcs), parallelism, func(i int) error {
		if _, err := PlaceCachedFor(funcs[i], s, cache.For(funcs[i]), d); err != nil {
			return fmt.Errorf("%s: %w", funcs[i].Name, err)
		}
		return nil
	})
	return par.NamePanic(err, func(i int) string { return funcs[i].Name })
}

// NeedsPlacement returns the functions whose allocation uses
// callee-saved registers, in program order — the functions placement
// must visit.
func NeedsPlacement(prog *ir.Program) []*ir.Func {
	var funcs []*ir.Func
	for _, f := range prog.FuncsInOrder() {
		if len(f.UsedCalleeSaved) != 0 {
			funcs = append(funcs, f)
		}
	}
	return funcs
}
