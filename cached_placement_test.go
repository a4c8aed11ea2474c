package spillopt

// Regression coverage for the shared analysis layer (internal/
// analysis): the cached placement path must be observationally
// identical to the thin uncached path (fresh analyses per call, the
// pre-refactor behavior), and invalidation must prevent any stale
// analysis from being served after a function is mutated — including
// under concurrent sharded placement.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/regalloc"
	"repro/internal/strategy"
	"repro/internal/vm"
)

// allocatedPrograms yields every testdata/*.ir program plus 50 irgen
// seeds, profiled and register-allocated, ready for placement.
func allocatedPrograms(t *testing.T) map[string]*ir.Program {
	t.Helper()
	out := make(map[string]*ir.Program)
	add := func(name string, prog *ir.Program, args []int64) {
		if _, err := profile.Collect(prog, vm.Config{}, args...); err != nil {
			t.Fatalf("%s: profile: %v", name, err)
		}
		if _, err := regalloc.AllocateProgram(prog, machine.PARISC(), 1, regalloc.Options{}); err != nil {
			t.Fatalf("%s: regalloc: %v", name, err)
		}
		out[name] = prog
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*.ir"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := irtext.Parse(string(b))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		add(filepath.Base(path), prog, oracleArgs(t, string(b)))
	}
	for seed := uint64(1); seed <= 50; seed++ {
		add(fmt.Sprintf("irgen-%d", seed), irgen.Generate(seed, irgen.Default()), []int64{0})
	}
	return out
}

// placeUncached reproduces the pre-refactor per-call path exactly:
// every analysis is rebuilt from scratch by Compute, and validation
// recomputes its own liveness.
func placeUncached(f *ir.Func, s strategy.Strategy) ([]*core.Set, error) {
	sets, err := strategy.ComputeCachedFor(f, s, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := core.ValidateSets(f, sets); err != nil {
		return nil, err
	}
	return sets, core.Apply(f, sets)
}

func setsText(sets []*core.Set) string {
	out := ""
	for _, s := range sets {
		out += s.String() + "\n"
	}
	return out
}

// TestCachedPlacementByteIdentity: for every checked-in program and 50
// generator seeds, under every strategy, the cached path produces
// save/restore sets and final placed IR text identical to the
// uncached per-call path.
func TestCachedPlacementByteIdentity(t *testing.T) {
	for name, base := range allocatedPrograms(t) {
		for _, s := range strategy.All {
			cached := base.Clone()
			uncached := base.Clone()

			cache := analysis.NewCache()
			for _, f := range strategy.NeedsPlacement(cached) {
				info := cache.For(f)
				csets, err := strategy.ComputeCachedFor(f, s, info, nil)
				if err != nil {
					t.Fatalf("%s/%v/%s: cached compute: %v", name, s, f.Name, err)
				}
				uf := uncached.Func(f.Name)
				usets, err := placeUncached(uf, s)
				if err != nil {
					t.Fatalf("%s/%v/%s: uncached place: %v", name, s, f.Name, err)
				}
				if got, want := setsText(csets), setsText(usets); got != want {
					t.Fatalf("%s/%v/%s: cached sets differ from uncached:\n%s\nwant:\n%s",
						name, s, f.Name, got, want)
				}
				if _, err := strategy.PlaceCachedFor(f, s, info, nil); err != nil {
					t.Fatalf("%s/%v/%s: cached place: %v", name, s, f.Name, err)
				}
			}
			if got, want := irtext.Print(cached), irtext.Print(uncached); got != want {
				t.Errorf("%s/%v: cached placement IR differs from uncached", name, s)
			}
		}
	}
}

// TestConcurrentCachedPlacementIdentity: sharded placement over a
// shared analysis cache must match the serial uncached placement
// byte-for-byte, and after placement the invalidated cache must serve
// analyses for the mutated shape (run under -race).
func TestConcurrentCachedPlacementIdentity(t *testing.T) {
	// A generated multi-procedure program gives the pool real sharding.
	base := irgen.Generate(7, irgen.Default())
	if _, err := profile.Collect(base, vm.Config{}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := regalloc.AllocateProgram(base, machine.PARISC(), 1, regalloc.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, s := range strategy.All {
		parallel := base.Clone()
		serial := base.Clone()
		cache := analysis.NewCache()
		if err := strategy.PlaceProgramFor(parallel, s, nil, 8, cache); err != nil {
			t.Fatalf("%v: parallel: %v", s, err)
		}
		for _, f := range strategy.NeedsPlacement(serial) {
			if _, err := placeUncached(f, s); err != nil {
				t.Fatalf("%v/%s: serial: %v", s, f.Name, err)
			}
		}
		if irtext.Print(parallel) != irtext.Print(serial) {
			t.Errorf("%v: parallel cached placement differs from serial uncached", s)
		}
		// PlaceCachedFor invalidated each Info after Apply: the cache
		// must now describe the placed (mutated) functions, not the
		// stale pre-placement shape.
		for _, f := range strategy.NeedsPlacement(parallel) {
			info := cache.For(f)
			if got, want := info.Liveness().Blocks(), len(f.Blocks); got != want {
				t.Errorf("%v/%s: stale liveness served: covers %d blocks, function has %d",
					s, f.Name, got, want)
			}
			if tree, err := info.PST(); err != nil {
				t.Errorf("%v/%s: PST after placement: %v", s, f.Name, err)
			} else if got, want := len(tree.Root.Blocks), len(f.Blocks); got != want {
				t.Errorf("%v/%s: stale PST served: root covers %d blocks, function has %d",
					s, f.Name, got, want)
			}
		}
	}
}
