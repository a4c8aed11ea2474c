// Package par provides the bounded worker pool behind every
// concurrent stage of the pipeline: per-function register allocation
// and placement, and per-benchmark sharding in the measurement
// harness. Work items are independent, so the pool only has to bound
// concurrency and keep error reporting deterministic.
package par

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the error Do returns for an index whose fn panicked:
// the panic is recovered on the worker, so one failing item cannot
// kill the process.
type PanicError struct {
	Index int    // the index whose fn panicked
	Value any    // the value passed to panic
	Stack []byte // the panicking goroutine's stack
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: item %d panicked: %v", e.Index, e.Value)
}

// NamePanic prefixes err with name(i) when err is the *PanicError Do
// returned for item i, so a recovered panic names its item the way the
// item's own errors do. errors.As still finds the *PanicError; any
// other error passes through unchanged.
func NamePanic(err error, name func(i int) string) error {
	if pe, ok := err.(*PanicError); ok {
		return fmt.Errorf("%s: %w", name(pe.Index), pe)
	}
	return err
}

// call runs fn(i), turning a panic into a *PanicError.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Limit resolves a parallelism request against an item count: n <= 0
// means GOMAXPROCS, and the result is clamped to [1, items] (with a
// floor of 1 even for zero items).
func Limit(n, items int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > items {
		n = items
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Do runs fn(0), ..., fn(n-1) across at most parallelism workers and
// waits for all of them. Workers pull indices from a shared counter,
// so long items do not serialize behind short ones. The returned
// error is the one from the lowest failed index — the same error the
// serial loop would hit first — regardless of scheduling order. A
// panic in fn is recovered into that index's error, a *PanicError, on
// the serial and the pooled path alike.
//
// Dispatch stops after the first error: indices not yet claimed when
// a failure is recorded never run (items already in flight finish
// normally). Because workers claim indices in ascending order, every
// index below a failed one was claimed before it, so early
// cancellation cannot skip a failure at a lower index and the
// lowest-failed-index guarantee is unaffected.
func Do(n, parallelism int, fn func(i int) error) error {
	workers := Limit(parallelism, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := call(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := call(fn, i); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
