// Package profile collects edge profiles by instrumented execution and
// applies them to a program's CFG edge weights, standing in for the
// SPEC profiling runs the paper uses.
package profile

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/vm"
)

// Collect runs the program on the given arguments under cfg and
// writes the observed execution counts onto every CFG edge
// (Edge.Weight) and every function's EntryCount. It returns the VM
// statistics of the profiling run. CollectEdges is forced on; the
// zero Config is the VM's default engine and step budget, and the
// fuzzing oracle caps MaxSteps so a reduced-but-nonterminating
// candidate is rejected quickly.
func Collect(prog *ir.Program, cfg vm.Config, args ...int64) (*vm.Stats, error) {
	cfg.CollectEdges = true
	m := vm.New(prog, cfg)
	if _, err := m.Run(args...); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	writeCounts(prog, m)
	return &m.Stats, nil
}

// CollectPartial runs the program under edge profiling for at most the
// configured step budget and writes whatever counts were observed onto
// the CFG — even when the run halts at the step limit. It is the
// profiling primitive of the tiered pipeline (internal/tier): tier 0
// runs for a bounded quantum, and the partial counts collected up to
// the halt drive re-layout and re-placement for tier 1.
//
// The returned stats and value describe the (possibly truncated) run;
// completed reports whether the program ran to the end. Unlike
// Collect, a step-limit halt is not an error — only other execution
// failures are. A partial profile generally violates flow
// conservation (the halting path's counts are cut mid-flight), so
// callers must not expect Consistent to hold.
func CollectPartial(prog *ir.Program, cfg vm.Config, args ...int64) (stats *vm.Stats, value int64, completed bool, err error) {
	cfg.CollectEdges = true
	m := vm.New(prog, cfg)
	value, err = m.Run(args...)
	switch {
	case err == nil:
		completed = true
	case vm.IsStepLimit(err):
		err = nil
	default:
		return nil, 0, false, fmt.Errorf("profile: %w", err)
	}
	writeCounts(prog, m)
	return &m.Stats, value, completed, nil
}

// writeCounts writes a profiling run's edge and call counts onto prog.
func writeCounts(prog *ir.Program, m *vm.VM) {
	for _, f := range prog.FuncsInOrder() {
		f.EntryCount = m.Stats.Calls[f.Name]
		for _, b := range f.Blocks {
			for _, e := range b.Succs {
				e.Weight = m.EdgeCount[e]
			}
		}
	}
}

// Consistent checks flow conservation of the profile on every
// function: for each non-entry, non-exit block the sum of incoming
// edge counts equals the sum of outgoing counts, and the entry block's
// outgoing count equals the function's entry count.
func Consistent(prog *ir.Program) error {
	for _, f := range prog.FuncsInOrder() {
		for _, b := range f.Blocks {
			var in, out int64
			for _, e := range b.Preds {
				in += e.Weight
			}
			for _, e := range b.Succs {
				out += e.Weight
			}
			if b == f.Entry {
				in = f.EntryCount
			}
			if b.IsExit() {
				continue
			}
			if in != out {
				return fmt.Errorf("profile: %s.%s: in %d != out %d", f.Name, b.Name, in, out)
			}
		}
	}
	return nil
}
