package spillopt

// PlacementCost agreement tests: the modeled jump-edge cost must not
// drift from what the measurement harness actually observes.

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/machine"
)

// allocated profiles and allocates src, returning the facade
// program ready for PlacementCost queries.
func allocated(t *testing.T, src string, arg int64) *Program {
	t.Helper()
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Profile(arg); err != nil {
		t.Fatal(err)
	}
	if err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlacementCostMatchesMeasurement: for the entry/exit strategy
// (no jump blocks, so the jump-edge model has no approximation to
// make) the summed per-function PlacementCost equals the measured
// dynamic save/restore overhead exactly — on the hand-written demo
// and on generated programs.
func TestPlacementCostMatchesMeasurement(t *testing.T) {
	sources := map[string]string{"demo": demoSrc}
	for _, seed := range []uint64{11, 23, 77} {
		sources[itoa(seed)] = irtext.Print(irgen.Generate(seed, irgen.Default()))
	}
	for name, src := range sources {
		p := allocated(t, src, 40)
		var modeled int64
		for _, fn := range p.Functions() {
			c, err := p.PlacementCost(fn, EntryExit)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, fn, err)
			}
			modeled += c
		}
		placed := p.Clone()
		if err := placed.Place(EntryExit); err != nil {
			t.Fatal(err)
		}
		res, err := placed.Run(40)
		if err != nil {
			t.Fatal(err)
		}
		measured := res.Saves + res.Restores + res.JumpBlockJumps
		if modeled != measured {
			t.Errorf("%s: modeled entry/exit cost %d != measured %d", name, modeled, measured)
		}
	}
}

// TestPlacementCostMatchesBench: the facade's modeled cost agrees
// with what internal/bench measures for the same program and
// strategy (bench profiles and runs with argument 0).
func TestPlacementCostMatchesBench(t *testing.T) {
	src := irtext.Print(irgen.Generate(11, irgen.Default()))
	classic, err := machine.Preset("classic")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := bench.RunSweep([]bench.Entry{{
		Name: "gen11",
		Gen: func() *ir.Program {
			prog, err := irtext.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			return prog
		},
	}}, []*machine.Desc{classic}, bench.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := sw.Results[0].Cells[0][bench.Baseline].Stats
	measured := st.Saves + st.Restores + st.JumpBlockJmps

	p := allocated(t, src, 0)
	var modeled int64
	var hier int64
	for _, fn := range p.Functions() {
		c, err := p.PlacementCost(fn, EntryExit)
		if err != nil {
			t.Fatal(err)
		}
		modeled += c
		h, err := p.PlacementCost(fn, HierarchicalJump)
		if err != nil {
			t.Fatal(err)
		}
		hier += h
	}
	if modeled != measured {
		t.Errorf("modeled entry/exit cost %d != bench-measured %d", modeled, measured)
	}
	if hier > modeled {
		t.Errorf("hierarchical-jump modeled cost %d exceeds entry/exit's %d", hier, modeled)
	}
}

// TestPlacementCostErrors: unknown functions and out-of-order use
// fail cleanly.
func TestPlacementCostErrors(t *testing.T) {
	p := allocated(t, demoSrc, 40)
	if _, err := p.PlacementCost("nosuch", EntryExit); err == nil {
		t.Error("unknown function should error")
	}
	if _, err := p.PlacementCost("work", Strategy(99)); err == nil {
		t.Error("unknown strategy should error")
	}
	q, err := ParseProgram(demoSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.PlacementCost("nosuch", EntryExit); err == nil {
		t.Error("unknown function should error before allocation too")
	}
}

func itoa(n uint64) string {
	if n == 0 {
		return "seed0"
	}
	var buf [24]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return "seed" + string(buf[i:])
}
