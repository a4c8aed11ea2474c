package vm

import (
	"repro/internal/ir"
	"repro/internal/machine"
)

// DispatchShare compiles prog as New does under m and weighs each
// compiled instruction by its block's execution count, which a
// profiling run wrote onto the CFG, so the hot loop needs no counter
// of its own. total is the instructions a run dispatches, second those
// that switch a second time: the generic const-fused forms, which
// switch again on the operator, and rOv, which dispatches again on its
// plain opcode.
func DispatchShare(prog *ir.Program, m *machine.Desc) (second, total int64) {
	v := New(prog, Config{Machine: m})
	for i := range v.rcode.funcs {
		fc := &v.rcode.funcs[i]
		for k, b := range fc.blocks {
			end := int32(len(fc.ins))
			if k+1 < len(fc.starts) {
				end = fc.starts[k+1]
			}
			runs := b.ExecCount()
			for _, in := range fc.ins[fc.starts[k]:end] {
				switch in.op {
				case rFellOff: // the trap after a terminator never runs
				case rConstBin, rConstBinSpillSt, rConstBinSpillStOv, rOv:
					second += runs
					total += runs
				default:
					total += runs
				}
			}
		}
	}
	return second, total
}
