// Pipeline runs one synthetic SPEC-like workload through the paper's
// full evaluation pipeline and prints where every number comes from:
// profile, allocation, placement per strategy, and measured overhead.
package main

import (
	"fmt"
	"log"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/workload"
)

func main() {
	var params workload.BenchParams
	for _, p := range workload.SPECInt2000() {
		if p.Name == "crafty" {
			params = p
		}
	}
	fmt.Printf("workload: %s (%d procedures + driver)\n", params.Name, params.Procs)
	fmt.Printf("traits: cold calls %.0f%%, live-across %.0f%%, outer loop %.0f%%\n\n",
		params.ColdCallProb*100, params.LiveAcrossProb*100, params.OuterLoopProb*100)

	// The paper's evaluation is a sweep over one machine, its unit-cost
	// classic preset.
	classic, err := machine.Preset("classic")
	if err != nil {
		log.Fatal(err)
	}
	sw, err := bench.RunSweep([]bench.Entry{bench.EntryFor(params)}, []*machine.Desc{classic}, bench.Options{Parallelism: 1})
	if err != nil {
		log.Fatal(err)
	}
	r := sw.Results[0]
	fmt.Printf("program: %d procedures, %d instructions after allocation, %d spilled vregs\n",
		r.Procedures, r.Instrs, r.SpilledVregs)
	fmt.Printf("all strategies computed the same result: %d\n\n", r.ReturnValue)

	fmt.Printf("%-12s %10s %9s %14s\n", "strategy", "overhead", "ratio", "placement time")
	for _, s := range bench.Strategies {
		c := r.Cells[0][s]
		fmt.Printf("%-12s %10d %8.1f%% %14v\n",
			s, c.WeightedOverhead, r.Ratio(0, s), c.PlacementTime)
	}
	fmt.Println("\n(the paper's crafty row: optimized 44.0%, shrink-wrap 93.3%)")
}
