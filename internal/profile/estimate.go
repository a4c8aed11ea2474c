package profile

import (
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/machine"
)

// Estimate synthesizes edge weights for every function of p without
// running it, the way compilers fall back to static branch prediction
// when no profile exists. With d's estimation parameters
// (machine.DefaultEstimate when d leaves them unset), each function is
// entered BaseScale times, branches split evenly, and each loop level
// multiplies frequency by LoopFactor. The paper's central claim is
// that real profile data is what lets the hierarchical algorithm find
// minimum-cost placements; running the pipeline with estimated weights
// instead quantifies how much of the win survives static estimation
// (see the estimate-vs-profile experiment in internal/bench).
func Estimate(p *ir.Program, d *machine.Desc) {
	ep := d.EstimateParams()
	for _, f := range p.FuncsInOrder() {
		estimateFunc(f, ep.BaseScale, ep.LoopFactor)
	}
}

func estimateFunc(f *ir.Func, baseScale, loopFactor int64) {
	dom := cfg.Dominators(f)
	loops := cfg.FindLoops(f, dom)

	// Block frequency: baseScale * loopFactor^depth.
	freq := make([]int64, len(f.Blocks))
	for _, b := range f.Blocks {
		w := baseScale
		for d := loops.DepthOf[b.ID]; d > 0; d-- {
			w *= loopFactor
		}
		freq[b.ID] = w
	}

	for _, b := range f.Blocks {
		n := len(b.Succs)
		if n == 0 {
			continue
		}
		// Split the block's frequency across successors, biasing back
		// edges so header frequencies stay consistent with the loop
		// multiplier: a back edge keeps (loopFactor-1)/loopFactor of
		// the iterations, the exit edge gets the rest.
		var backs, fwd []*ir.Edge
		for _, e := range b.Succs {
			if dom.Dominates(e.To, b) {
				backs = append(backs, e)
			} else {
				fwd = append(fwd, e)
			}
		}
		w := freq[b.ID]
		if len(backs) > 0 && len(fwd) > 0 {
			backShare := w * (loopFactor - 1) / loopFactor
			for _, e := range backs {
				e.Weight = backShare / int64(len(backs))
			}
			rest := w - backShare
			for _, e := range fwd {
				e.Weight = rest / int64(len(fwd))
			}
			continue
		}
		for _, e := range b.Succs {
			e.Weight = w / int64(n)
		}
	}
	f.EntryCount = baseScale
}
