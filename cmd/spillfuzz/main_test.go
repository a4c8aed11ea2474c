package main

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestSweepFailsOnPanickingSeed checks that a seed whose check panics
// fails the sweep, serially and pooled, with an error naming the seed
// and holding the panicking stack, instead of the sweep counting the
// seeds it reached as clean.
func TestSweepFailsOnPanickingSeed(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		var visited atomic.Int64
		err := sweep(20, jobs, 100, func(seed uint64) {
			visited.Add(1)
			if seed == 103 {
				panic("boom")
			}
		})
		if err == nil {
			t.Fatalf("jobs=%d: sweep with a panicking seed returned nil", jobs)
		}
		msg := err.Error()
		if !strings.HasPrefix(msg, "seed 103 panicked: boom\n") || !strings.Contains(msg, "goroutine ") {
			t.Errorf("jobs=%d: error = %q, want the seed, the panic value and the stack", jobs, msg)
		}
		if got := visited.Load(); jobs == 1 && got != 4 {
			t.Errorf("jobs=1: visited %d seeds, want 4: the serial sweep stops at the panicking seed", got)
		}
	}
}

// TestSweepVisitsEverySeed checks that a sweep without a panic visits
// each seed once and returns nil.
func TestSweepVisitsEverySeed(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		var seen [10]atomic.Int64
		if err := sweep(10, jobs, 50, func(seed uint64) { seen[seed-50].Add(1) }); err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i := range seen {
			if c := seen[i].Load(); c != 1 {
				t.Errorf("jobs=%d: seed %d visited %d times", jobs, 50+i, c)
			}
		}
	}
}
