// Package vm executes IR programs. It serves two roles in the
// reproduction: collecting edge profiles by execution (the paper's
// profile-guided inputs), and measuring true dynamic spill overhead of
// post-allocation code while enforcing the callee-saved register
// convention — a placement bug becomes a hard execution error, not a
// silently wrong count.
//
// Two engines implement the same observable semantics:
//
//   - EngineRegcode (the default) compiles each function once, at New,
//     into register-transfer code: physical registers, virtuals, and
//     frame slots share one flat per-invocation register bank so every
//     operand access is a single slice index, and a call hands the
//     caller's physical-register prefix straight to the callee's bank;
//     branch targets, callees, and profiled edges are resolved to
//     dense indices; superinstruction fusion covers whole loop-header
//     shapes, with const-fed operations specialized by operator and
//     relation so the hot instructions take a single switch; overhead
//     classes are an opcode of their own rather than a test on every
//     instruction; step accounting is batched per straight-line
//     quantum; and frames come from a chunked arena, so steady-state
//     execution allocates nothing (see regcode.go, regexec.go).
//   - EngineTree is the original tree-walking interpreter over
//     *ir.Block pointers (tree.go). It is kept as the differential
//     reference; the parity tests prove both engines agree exactly on
//     values, statistics, edge profiles, and error reporting.
//
// ParseEngine still accepts "bytecode", the name of a retired third
// engine, as a deprecated alias of EngineRegcode.
package vm

import (
	"errors"
	"fmt"

	"repro/internal/ir"
	"repro/internal/machine"
)

// Stats aggregates dynamic execution counts.
type Stats struct {
	Instrs int64 // all executed instructions
	Loads  int64 // memory reads: load, spill.ld, restore
	Stores int64 // memory writes: store, spill.st, save

	// Overhead counts executions of compiler-inserted instructions.
	SpillLoads    int64
	SpillStores   int64
	Saves         int64
	Restores      int64
	JumpBlockJmps int64

	// Calls counts procedure invocations by function name.
	Calls map[string]int64
}

// Overhead is the total dynamic spill code overhead: all spill loads
// and stores, callee-saved saves and restores, and jump-block jumps.
// It equals WeightedOverhead under the paper's unit costs.
func (s *Stats) Overhead() int64 {
	return s.SpillLoads + s.SpillStores + s.Saves + s.Restores + s.JumpBlockJmps
}

// WeightedOverhead prices the measured overhead classes with a
// machine's cost surface: memory reads (spill loads, restores) at the
// spill-load latency, memory writes (spill stores, saves) at the
// spill-store latency, and jump-block jumps at the taken-jump penalty.
// This is the same pricing the placement cost models use
// (core.MachineModel), so for a placement whose profile matches the
// run, model and machine agree cycle for cycle.
func (s *Stats) WeightedOverhead(c machine.Costs) int64 {
	return c.Price(s.SpillLoads+s.Restores, s.SpillStores+s.Saves, s.JumpBlockJmps)
}

// SaveRestoreCost prices only the callee-saved placement classes —
// saves, restores, and jump-block jumps — leaving out allocator spill
// traffic. This is the quantity the placement models predict, so it is
// what the oracle's model-vs-measured exactness check compares.
func (s *Stats) SaveRestoreCost(c machine.Costs) int64 {
	return c.Price(s.Restores, s.Saves, s.JumpBlockJmps)
}

// Snapshot deep-copies the stats. A plain struct copy would alias the
// Calls map between the copy and the still-running VM; Snapshot is the
// safe way to let counters outlive (or leave) their VM, e.g. when
// results are collected from concurrent runs.
func (s *Stats) Snapshot() Stats {
	out := *s
	out.Calls = make(map[string]int64, len(s.Calls))
	for name, n := range s.Calls {
		out.Calls[name] = n
	}
	return out
}

// Merge adds o's counters into s, summing the per-function call
// counts. Shard workers run isolated VMs and merge their stats into a
// suite-wide total afterward; merging in any order yields the same
// result.
func (s *Stats) Merge(o *Stats) {
	s.Instrs += o.Instrs
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.SpillLoads += o.SpillLoads
	s.SpillStores += o.SpillStores
	s.Saves += o.Saves
	s.Restores += o.Restores
	s.JumpBlockJmps += o.JumpBlockJmps
	if len(o.Calls) > 0 && s.Calls == nil {
		s.Calls = make(map[string]int64, len(o.Calls))
	}
	for name, n := range o.Calls {
		s.Calls[name] += n
	}
}

// DefaultMaxSteps is the execution budget a zero Config.MaxSteps
// selects. Exported so budget arithmetic outside the VM (the tiered
// pipeline splits one budget across two runs) agrees with the VM's
// own default.
const DefaultMaxSteps int64 = 1 << 28

// Engine selects an execution engine.
type Engine int

const (
	// EngineRegcode is the register-transfer engine: a unified
	// register bank per invocation, loop-header superinstructions,
	// quantum-batched step accounting, and arena-allocated frames. The
	// default.
	EngineRegcode Engine = iota
	// EngineTree is the legacy tree-walking interpreter, kept as the
	// differential reference for the compiled engine.
	EngineTree
)

// String names the engine ("regcode" or "tree").
func (e Engine) String() string {
	if e == EngineTree {
		return "tree"
	}
	return "regcode"
}

// Engines lists every execution engine, for harnesses that sweep them.
var Engines = []Engine{EngineRegcode, EngineTree}

// ParseEngine maps an engine name back to the enum, for CLI flags.
// "bytecode" is a deprecated alias of "regcode": it named the engine
// regcode replaced, and clients that still send it get the default.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "regcode", "bytecode":
		return EngineRegcode, nil
	case "tree":
		return EngineTree, nil
	}
	return 0, fmt.Errorf("vm: unknown engine %q (want regcode or tree)", s)
}

// Config controls a VM run.
type Config struct {
	// Machine enables callee-saved convention checking when non-nil:
	// a called procedure must return with every callee-saved register
	// holding the value it had at the call.
	Machine *machine.Desc
	// HeapWords is the size of the flat heap (default 1<<16).
	HeapWords int
	// MaxSteps bounds execution (default DefaultMaxSteps).
	MaxSteps int64
	// CollectEdges enables per-edge execution counting.
	CollectEdges bool
	// Engine selects the execution engine (default EngineRegcode).
	Engine Engine
}

// VM executes a program.
type VM struct {
	prog *ir.Program
	cfg  Config

	phys  [64]int64 // machine registers, global across calls
	heap  []int64
	steps int64

	// Compiled-engine state. The program is compiled once, at New;
	// mutate the program after that and the VM keeps executing the
	// shape it compiled — create a new VM instead.
	rcode      *rcProgram
	arena      rcArena // frame arena
	callDense  []int64 // per-function call counts, flushed into Stats.Calls
	edgeDense  []int64 // per-edge traversal counts, flushed into EdgeCount
	csFrom     int     // the checked callee-saved registers are the
	csTo       int     // range [csFrom, csTo) of the physical file
	argScratch []int64 // call argument evaluation stack, one segment per live call

	Stats     Stats
	EdgeCount map[*ir.Edge]int64
}

// New prepares a VM for the program.
func New(prog *ir.Program, cfg Config) *VM {
	if cfg.HeapWords == 0 {
		cfg.HeapWords = 1 << 16
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	v := &VM{prog: prog, cfg: cfg}
	if cfg.Machine != nil {
		v.csFrom = cfg.Machine.CalleeSavedFrom
		v.csTo = cfg.Machine.NumRegs
	}
	// The heap is only materialized for programs that can touch it;
	// a program with no load/store never observes the difference, and
	// the suites of register-resident benchmarks skip half a megabyte
	// of zeroed allocation per VM.
	var heap bool
	var edges int
	if cfg.Engine == EngineTree {
		heap = usesHeap(prog)
	} else {
		v.rcode = compileRegProgram(prog, v.csTo)
		v.arena.first = v.rcode.bankSum
		heap = v.rcode.usesHeap
		edges = len(v.rcode.edges)
	}
	if heap {
		v.heap = make([]int64, cfg.HeapWords)
	}
	v.Stats.Calls = make(map[string]int64)
	if cfg.CollectEdges {
		v.EdgeCount = make(map[*ir.Edge]int64, edges)
	}
	return v
}

// Run executes the program's main function with the given arguments
// and returns its result.
func (v *VM) Run(args ...int64) (int64, error) {
	if v.cfg.Engine == EngineTree {
		return v.runTree(args)
	}
	return v.runRegcode(args)
}

// usesHeap reports whether any instruction can address the flat heap.
// The compiled engine answers this in its counting pass; the tree
// engine, which compiles nothing, walks the program.
func usesHeap(p *ir.Program) bool {
	for _, f := range p.FuncsInOrder() {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpLoad || in.Op == ir.OpStore {
					return true
				}
			}
		}
	}
	return false
}

// ErrStepLimit is returned (wrapped with the function and block where
// execution stopped) when a run exceeds Config.MaxSteps.
//
// Halt accounting contract (all engines, pinned by TestStepLimitStats):
// at a step-limit halt Stats.Instrs equals Config.MaxSteps exactly —
// the instruction that would have exceeded the budget is not counted —
// and EdgeCount (when CollectEdges is on) reflects every edge traversal
// up to the halt. The tiered pipeline leans on this: tier 0 runs with
// MaxSteps set to the quantum, and the remaining tier-1 budget is
// simply the original budget minus tier 0's Stats.Instrs.
var ErrStepLimit = errors.New("vm: step limit exceeded")

// IsStepLimit reports whether err is (or wraps) a step-limit halt.
// Engines wrap ErrStepLimit with the function and block where execution
// stopped; this is the test callers should use instead of matching the
// sentinel directly.
func IsStepLimit(err error) bool { return errors.Is(err, ErrStepLimit) }

// maxCallDepth bounds recursion; beyond it the VM reports a call depth
// error rather than exhausting the host stack.
const maxCallDepth = 512

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
