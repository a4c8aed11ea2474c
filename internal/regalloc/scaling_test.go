package regalloc_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/machine"
	"repro/internal/regalloc"
)

// chainFunc builds a function of n chained blocks: block k computes
// v(k+1) = add v(k), v0 and jumps to the next, and the last returns.
// The parameter v0 is live through every block.
func chainFunc(n int) *ir.Func {
	bu := ir.NewBuilder("chain", 1)
	bu.Block("entry")
	v0 := bu.F.Params[0]
	blocks := make([]*ir.Block, n)
	for i := range blocks {
		blocks[i] = bu.F.NewBlock(fmt.Sprintf("b%d", i))
	}
	bu.Jmp(blocks[0], 1)
	x := v0
	for i, b := range blocks {
		bu.SetCurrent(b)
		x = bu.Bin(ir.OpAdd, x, v0)
		if i+1 < n {
			bu.Jmp(blocks[i+1], 1)
		} else {
			bu.Ret(x)
		}
	}
	return bu.Finish()
}

// allocatedBytes returns the bytes fn allocates on the heap.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestChainBytesLinear guards liveness and allocation against growing
// faster than the block count on long block chains. Bytes allocated
// are deterministic where timings are not: 4x the blocks may cost at
// most 4.5x the bytes. Sets sized by the whole register universe, one
// per block, grow 16x here.
func TestChainBytesLinear(t *testing.T) {
	const small, large, bound = 10_000, 40_000, 4.5
	m := machine.PARISC()
	for _, tc := range []struct {
		name string
		run  func(f *ir.Func) error
	}{
		{"liveness", func(f *ir.Func) error { dataflow.ComputeLiveness(f); return nil }},
		{"allocate", func(f *ir.Func) error { _, err := regalloc.Allocate(f, m, regalloc.Options{}); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var bytes [2]uint64
			for i, n := range []int{small, large} {
				f := chainFunc(n)
				var err error
				bytes[i] = allocatedBytes(func() { err = tc.run(f) })
				if err != nil {
					t.Fatalf("%d blocks: %v", n, err)
				}
			}
			ratio := float64(bytes[1]) / float64(bytes[0])
			t.Logf("%d blocks %d bytes, %d blocks %d bytes (%.2fx)", small, bytes[0], large, bytes[1], ratio)
			if ratio > bound {
				t.Errorf("%dx the blocks allocated %.1fx the bytes, want at most %.1fx", large/small, ratio, bound)
			}
		})
	}
}
