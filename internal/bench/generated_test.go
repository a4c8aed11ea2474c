package bench

import (
	"testing"
)

// TestGeneratedSuite: irgen scenario families run through the full
// measurement pipeline like any SPEC stand-in, with the paper's
// ordering claims intact.
func TestGeneratedSuite(t *testing.T) {
	entries := GeneratedSuite(5, 3)
	results := paperSweep(t, entries, Options{Parallelism: 1}).Results
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Name != entries[i].Name {
			t.Errorf("result %d named %q, want %q", i, r.Name, entries[i].Name)
		}
		o := overheads(r)
		if o[Optimized] > o[Baseline] {
			t.Errorf("%s: Optimized overhead %d > Baseline %d", r.Name, o[Optimized], o[Baseline])
		}
		if o[Optimized] > o[Shrinkwrap] {
			t.Errorf("%s: Optimized overhead %d > Shrinkwrap %d", r.Name, o[Optimized], o[Shrinkwrap])
		}
	}
}

// TestGeneratedSuiteDeterministic: the same seeds measure identically
// across runs and parallelism levels.
func TestGeneratedSuiteDeterministic(t *testing.T) {
	a := paperSweep(t, GeneratedSuite(9, 2), Options{Parallelism: 1}).Results
	b := paperSweep(t, GeneratedSuite(9, 2), Options{Parallelism: 4}).Results
	for i := range a {
		if overheads(a[i]) != overheads(b[i]) || a[i].ReturnValue != b[i].ReturnValue {
			t.Errorf("%s: serial and sharded runs disagree: %v/%d vs %v/%d",
				a[i].Name, overheads(a[i]), a[i].ReturnValue, overheads(b[i]), b[i].ReturnValue)
		}
	}
}
