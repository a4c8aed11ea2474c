package profile

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/machine"
	"repro/internal/vm"
)

// checkEstimate pins Estimate's weights on the countdown program for
// one set of estimation parameters.
func checkEstimate(t *testing.T, d *machine.Desc, base, factor int64) {
	t.Helper()
	p := countdown()
	Estimate(p, d)

	for _, f := range p.FuncsInOrder() {
		if f.EntryCount != base {
			t.Errorf("%s: EntryCount = %d, want %d", f.Name, f.EntryCount, base)
		}
		// A block at loop depth k runs base*factor^k times, and its
		// out-edges carry exactly that frequency.
		loops := cfg.FindLoops(f, cfg.Dominators(f))
		for _, b := range f.Blocks {
			if len(b.Succs) == 0 {
				continue
			}
			want := base
			for k := loops.DepthOf[b.ID]; k > 0; k-- {
				want *= factor
			}
			var got int64
			for _, e := range b.Succs {
				got += e.Weight
			}
			if got != want {
				t.Errorf("%s.%s (depth %d): out-weight %d, want %d", f.Name, b.Name, loops.DepthOf[b.ID], got, want)
			}
		}
	}

	// main's loop is its own latch: the back edge keeps
	// (factor-1)/factor of the loop's frequency, the exit the rest.
	m := p.Func("main")
	loop := m.BlockByName("loop")
	w := base * factor
	if back := loop.SuccEdge(loop).Weight; back != w*(factor-1)/factor {
		t.Errorf("back edge weight %d, want %d", back, w*(factor-1)/factor)
	}
	if exit := loop.SuccEdge(m.BlockByName("exit")).Weight; exit != w-w*(factor-1)/factor {
		t.Errorf("loop exit weight %d, want %d", exit, w-w*(factor-1)/factor)
	}

	// helper's parity branch is not a loop: it splits evenly.
	h := p.Func("helper")
	entry := h.BlockByName("entry")
	for _, name := range []string{"odd", "even"} {
		if got := entry.SuccEdge(h.BlockByName(name)).Weight; got != base/2 {
			t.Errorf("helper entry->%s weight %d, want %d", name, got, base/2)
		}
	}
}

// TestEstimateDefaultParams: a machine that leaves its estimation
// parameters unset gets machine.DefaultEstimate.
func TestEstimateDefaultParams(t *testing.T) {
	ep := machine.DefaultEstimate
	checkEstimate(t, machine.PARISC(), ep.BaseScale, ep.LoopFactor)
}

// TestEstimateHonorsMachine: a machine's own estimation parameters
// replace the defaults.
func TestEstimateHonorsMachine(t *testing.T) {
	d := machine.PARISC()
	d.Estimate = machine.EstimateParams{BaseScale: 10, LoopFactor: 4}
	checkEstimate(t, d, 10, 4)
}

// TestCollectPartialMatchesCollect: under a budget the run fits in,
// CollectPartial writes exactly the edge weights and entry counts
// Collect writes — the two share one write-back.
func TestCollectPartialMatchesCollect(t *testing.T) {
	full, part := countdown(), countdown()
	if _, err := Collect(full, vm.Config{MaxSteps: 1 << 20}, 10); err != nil {
		t.Fatal(err)
	}
	_, _, completed, err := CollectPartial(part, vm.Config{MaxSteps: 1 << 20}, 10)
	if err != nil || !completed {
		t.Fatalf("CollectPartial: completed %v, err %v", completed, err)
	}
	for _, f := range full.FuncsInOrder() {
		g := part.Func(f.Name)
		if f.EntryCount != g.EntryCount {
			t.Errorf("%s: EntryCount %d vs %d", f.Name, f.EntryCount, g.EntryCount)
		}
		fe, ge := f.Edges(), g.Edges()
		for i := range fe {
			if fe[i].Weight != ge[i].Weight {
				t.Errorf("%s: edge %s->%s weight %d vs %d", f.Name, fe[i].From.Name, fe[i].To.Name, fe[i].Weight, ge[i].Weight)
			}
		}
	}
	var weighted bool
	for _, e := range full.Func("helper").Edges() {
		weighted = weighted || e.Weight != 0
	}
	if !weighted {
		t.Fatal("profile wrote no weights; the comparison is vacuous")
	}
}
