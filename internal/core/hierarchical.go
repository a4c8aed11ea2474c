package core

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/pst"
)

// BoundaryLocs returns the save location(s) at a region's entry and
// the restore location(s) at its exit. The root region's boundaries
// are procedure entry and every procedure exit.
func BoundaryLocs(f *ir.Func, r *pst.Region) (saves, restores []Location) {
	if r.EntryEdge != nil {
		saves = []Location{EdgeLoc(r.EntryEdge)}
	} else {
		saves = []Location{HeadLoc(f.Entry)}
	}
	switch {
	case r.ExitEdge != nil:
		restores = []Location{EdgeLoc(r.ExitEdge)}
	case r.ExitBlock != nil:
		restores = []Location{TailLoc(r.ExitBlock)}
	default:
		for _, x := range f.Exits() {
			restores = append(restores, TailLoc(x))
		}
	}
	return saves, restores
}

// boundaryCost is the cost of saving at the region entry and restoring
// at the region exit(s) for one register, under the model. Boundary
// sets are created by the algorithm, so the seed jump-sharing rule
// does not apply.
func boundaryCost(m CostModel, f *ir.Func, r *pst.Region) int64 {
	saves, restores := BoundaryLocs(f, r)
	var c int64
	for _, l := range saves {
		c += m.LocationCost(SaveCost, l, false)
	}
	for _, l := range restores {
		c += m.LocationCost(RestoreCost, l, false)
	}
	return c
}

// locContained reports whether a location lies inside region r. The
// region's own boundary edges are outside; in-block locations belong
// to the region of their block.
func locContained(r *pst.Region, l Location) bool {
	if l.Kind == OnEdge {
		return r.ContainsEdge(l.Edge)
	}
	return r.ContainsBlock(l.Block)
}

// setContained reports whether every location of the set lies inside
// region r. The root region contains every set.
func setContained(r *pst.Region, s *Set) bool {
	if r.IsRoot() {
		return true
	}
	for _, l := range s.Saves {
		if !locContained(r, l) {
			return false
		}
	}
	for _, l := range s.Restores {
		if !locContained(r, l) {
			return false
		}
	}
	return true
}

// RegionDecision records one step of the traversal, for reports and
// for reproducing the paper's worked example.
type RegionDecision struct {
	Region        *pst.Region
	Reg           ir.Reg
	ContainedCost int64
	BoundaryCost  int64
	Replaced      bool
}

// Hierarchical runs the paper's hierarchical spill code placement
// algorithm: traverse the PST bottom-up; at each maximal SESE region
// and for each callee-saved register, if the cost of saving/restoring
// at the region boundaries is less than or equal to the total cost of
// the save/restore sets contained in the region, replace them with a
// single set at the boundaries.
//
// It returns the final save/restore sets and the per-region decisions
// in traversal order. The input seed sets are not modified. It errors
// when handed unusable inputs — a nil cost model, a nil tree, or a
// tree built for a different function — instead of traversing with
// them; callers must propagate the error rather than apply a partial
// placement.
//
// Hierarchical keeps all working state local and only reads f, t, and
// seed, so concurrent calls over distinct functions (each with its own
// PST and seed) are safe — the parallel pipeline relies on this.
func Hierarchical(f *ir.Func, t *pst.PST, seed []*Set, m CostModel) ([]*Set, []RegionDecision, error) {
	switch {
	case m == nil:
		return nil, nil, fmt.Errorf("core.Hierarchical(%s): nil cost model", f.Name)
	case t == nil:
		return nil, nil, fmt.Errorf("core.Hierarchical(%s): nil PST", f.Name)
	case t.Func != f:
		return nil, nil, fmt.Errorf("core.Hierarchical(%s): PST was built for %s", f.Name, t.Func.Name)
	}
	live := make([]*Set, len(seed))
	copy(live, seed)
	var decisions []RegionDecision

	for _, r := range t.BottomUp() {
		for _, reg := range f.UsedCalleeSaved {
			var contained []*Set
			for _, s := range live {
				if s.Reg == reg && setContained(r, s) {
					contained = append(contained, s)
				}
			}
			if len(contained) == 0 {
				continue
			}
			cc := TotalCost(m, contained)
			bc := boundaryCost(m, f, r)
			replaced := bc <= cc
			decisions = append(decisions, RegionDecision{
				Region: r, Reg: reg,
				ContainedCost: cc, BoundaryCost: bc, Replaced: replaced,
			})
			if !replaced {
				continue
			}
			// Remove the contained sets and add one at the boundaries.
			next := live[:0:0]
			for _, s := range live {
				if !(s.Reg == reg && setContained(r, s)) {
					next = append(next, s)
				}
			}
			saves, restores := BoundaryLocs(f, r)
			next = append(next, &Set{Reg: reg, Saves: saves, Restores: restores})
			live = next
		}
	}
	return live, decisions, nil
}

// EntryExit returns the baseline placement: save every used
// callee-saved register at procedure entry, restore it at every exit.
func EntryExit(f *ir.Func) []*Set {
	var sets []*Set
	for _, reg := range f.UsedCalleeSaved {
		s := &Set{Reg: reg, Saves: []Location{HeadLoc(f.Entry)}}
		for _, x := range f.Exits() {
			s.Restores = append(s.Restores, TailLoc(x))
		}
		sets = append(sets, s)
	}
	return sets
}
