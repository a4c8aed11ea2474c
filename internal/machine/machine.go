// Package machine describes the target processor model. The paper's
// experiments target a PA-RISC with 24 general purpose registers
// available for allocation, 13 of them callee-saved; the default
// description here matches those parameters.
package machine

import (
	"fmt"

	"repro/internal/ir"
)

// Desc describes a register file, calling convention, and cost
// surface.
type Desc struct {
	// Name identifies the machine in reports ("" for ad-hoc
	// descriptions like the test-only Small machines).
	Name string
	// Costs prices compiler-inserted overhead on this machine. The
	// zero value means the paper's unit costs; see Costs.
	Costs Costs
	// Estimate parameterizes static profile estimation for this
	// machine's compiler (profile.Estimate). The zero value means
	// DefaultEstimate.
	Estimate EstimateParams
	// NumRegs is the number of allocatable general purpose registers.
	NumRegs int
	// CalleeSavedFrom is the first callee-saved register number;
	// registers [CalleeSavedFrom, NumRegs) are callee-saved and
	// registers [0, CalleeSavedFrom) are caller-saved.
	CalleeSavedFrom int
	// ArgRegs are the caller-saved registers used to pass arguments.
	ArgRegs []ir.Reg
	// RetReg is the caller-saved register holding a call's result.
	RetReg ir.Reg
}

// PARISC returns the paper's machine: 24 allocatable GPRs, 13 of them
// callee-saved (r11..r23), arguments in r0..r3, result in r0.
func PARISC() *Desc {
	d := &Desc{Name: "pa-risc", NumRegs: 24, CalleeSavedFrom: 11, RetReg: ir.Phys(0)}
	for i := 0; i < 4; i++ {
		d.ArgRegs = append(d.ArgRegs, ir.Phys(i))
	}
	return d
}

// Small returns a tiny machine useful for forcing spills in tests:
// n allocatable registers with the top k callee-saved, arguments in
// up to two caller-saved registers.
func Small(n, k int) *Desc {
	if k >= n {
		panic(fmt.Sprintf("machine.Small(%d,%d): need at least one caller-saved register", n, k))
	}
	d := &Desc{NumRegs: n, CalleeSavedFrom: n - k, RetReg: ir.Phys(0)}
	for i := 0; i < 2 && i < n-k; i++ {
		d.ArgRegs = append(d.ArgRegs, ir.Phys(i))
	}
	return d
}

// IsCalleeSaved reports whether r is a callee-saved register.
func (d *Desc) IsCalleeSaved(r ir.Reg) bool {
	return r.IsPhys() && r.PhysNum() >= d.CalleeSavedFrom && r.PhysNum() < d.NumRegs
}

// IsCallerSaved reports whether r is a caller-saved register.
func (d *Desc) IsCallerSaved(r ir.Reg) bool {
	return r.IsPhys() && r.PhysNum() < d.CalleeSavedFrom
}

// CalleeSaved returns the callee-saved registers in ascending order.
func (d *Desc) CalleeSaved() []ir.Reg {
	out := make([]ir.Reg, 0, d.NumRegs-d.CalleeSavedFrom)
	for i := d.CalleeSavedFrom; i < d.NumRegs; i++ {
		out = append(out, ir.Phys(i))
	}
	return out
}

// CallerSaved returns the caller-saved registers in ascending order.
func (d *Desc) CallerSaved() []ir.Reg {
	out := make([]ir.Reg, 0, d.CalleeSavedFrom)
	for i := 0; i < d.CalleeSavedFrom; i++ {
		out = append(out, ir.Phys(i))
	}
	return out
}

// NumCalleeSaved returns the count of callee-saved registers.
func (d *Desc) NumCalleeSaved() int { return d.NumRegs - d.CalleeSavedFrom }
