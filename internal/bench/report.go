package bench

import (
	"fmt"
	"strings"

	"repro/internal/vm"
)

// The paper's tables read a one-machine sweep: every function below
// reports the sweep's first machine, which for the paper's evaluation
// is the unit-cost classic preset, where the weighted overhead is the
// executed overhead instruction count.

// Figure5 formats the total dynamic spill overhead chart data: one row
// per benchmark, one column per strategy, mirroring the paper's
// Figure 5.
func Figure5(sw *Sweep) string {
	var b strings.Builder
	b.WriteString("Figure 5: total dynamic spill code overhead (executed overhead instructions)\n\n")
	fmt.Fprintf(&b, "%-10s %14s %14s %14s %14s\n", "benchmark", "Optimized", "Shrinkwrap", "Baseline", "Opt(exec)*")
	for _, r := range sw.Results {
		c := &r.Cells[0]
		fmt.Fprintf(&b, "%-10s %14d %14d %14d %14d\n",
			r.Name, c[Optimized].WeightedOverhead, c[Shrinkwrap].WeightedOverhead, c[Baseline].WeightedOverhead,
			c[OptimizedExec].WeightedOverhead)
	}
	b.WriteString("\n*Opt(exec): exec-count cost model realized with jump blocks — an ablation\n")
	b.WriteString(" the paper could not run (GCC cannot execute spill code on jump edges).\n")
	return b.String()
}

// Table1 formats the overhead ratios relative to entry/exit placement,
// mirroring the paper's Table 1 (paper averages: optimized 84.8%,
// shrink-wrap 99.3%).
func Table1(sw *Sweep) string {
	var b strings.Builder
	b.WriteString("Table 1: dynamic spill overhead relative to entry/exit placement\n\n")
	fmt.Fprintf(&b, "%-10s %22s %22s\n", "benchmark", "Optimized/Baseline", "Shrinkwrap/Baseline")
	var so, ss float64
	for _, r := range sw.Results {
		fmt.Fprintf(&b, "%-10s %21.1f%% %21.1f%%\n", r.Name, r.Ratio(0, Optimized), r.Ratio(0, Shrinkwrap))
		so += r.Ratio(0, Optimized)
		ss += r.Ratio(0, Shrinkwrap)
	}
	n := float64(len(sw.Results))
	fmt.Fprintf(&b, "%-10s %21.1f%% %21.1f%%\n", "Average", so/n, ss/n)
	return b.String()
}

// Table2 formats the incremental compile time of shrink-wrapping and
// the hierarchical algorithm relative to entry/exit placement,
// mirroring the paper's Table 2 (paper average ratio: 5.44).
func Table2(sw *Sweep) string {
	var b strings.Builder
	b.WriteString("Table 2: incremental placement time vs entry/exit placement\n\n")
	fmt.Fprintf(&b, "%-10s %18s %18s %8s\n", "benchmark", "Shrinkwrap", "Optimized", "Ratio")
	var sumSw, sumOpt float64
	var sumRatio float64
	n := 0
	for _, r := range sw.Results {
		wrap := r.Cells[0][Shrinkwrap].PlacementTime.Seconds() * 1e3
		opt := r.Cells[0][Optimized].PlacementTime.Seconds() * 1e3
		ratio := 0.0
		if wrap > 0 {
			ratio = opt / wrap
			sumRatio += ratio
			n++
		}
		sumSw += wrap
		sumOpt += opt
		fmt.Fprintf(&b, "%-10s %15.3fms %15.3fms %8.2f\n", r.Name, wrap, opt, ratio)
	}
	avgRatio := 0.0
	if n > 0 {
		avgRatio = sumRatio / float64(n)
	}
	fmt.Fprintf(&b, "%-10s %15.3fms %15.3fms %8.2f\n", "Average",
		sumSw/float64(len(sw.Results)), sumOpt/float64(len(sw.Results)), avgRatio)

	// All-strategy placement total: the suite's whole compile-side
	// placement cost, the number the shared analysis layer shrinks
	// (per-strategy columns hide sharing, since whichever strategy
	// first needs an analysis is charged for building it).
	var total float64
	for _, r := range sw.Results {
		for _, s := range Strategies {
			total += r.Cells[0][s].PlacementTime.Seconds() * 1e3
		}
	}
	fmt.Fprintf(&b, "\nTotal placement compute time, all %d strategies: %.3fms\n", len(Strategies), total)
	return b.String()
}

// SweepTables formats the multi-machine sweep: per machine, a Table
// 1/2-style section (weighted overhead per benchmark and strategy plus
// the placement-time totals), followed by the crossover report —
// which strategy wins under which jump:spill latency ratio.
func SweepTables(sw *Sweep) string {
	var b strings.Builder
	totals := sw.MachineTotals()
	for mi, t := range totals {
		d := t.Machine
		fmt.Fprintf(&b, "Machine %s (%s): weighted dynamic spill overhead\n\n", d.Name, d.Costs)
		fmt.Fprintf(&b, "%-10s %14s %14s %14s %14s %9s\n",
			"benchmark", "Optimized", "Shrinkwrap", "Baseline", "Opt(exec)", "Opt/Base")
		for _, r := range sw.Results {
			c := &r.Cells[mi]
			fmt.Fprintf(&b, "%-10s %14d %14d %14d %14d %8.1f%%\n",
				r.Name, c[Optimized].WeightedOverhead, c[Shrinkwrap].WeightedOverhead,
				c[Baseline].WeightedOverhead, c[OptimizedExec].WeightedOverhead, r.Ratio(mi, Optimized))
		}
		totalRatio := 100.0
		if t.Overhead[Baseline] != 0 {
			totalRatio = 100 * float64(t.Overhead[Optimized]) / float64(t.Overhead[Baseline])
		}
		fmt.Fprintf(&b, "%-10s %14d %14d %14d %14d %8.1f%%\n",
			"Total", t.Overhead[Optimized], t.Overhead[Shrinkwrap],
			t.Overhead[Baseline], t.Overhead[OptimizedExec], totalRatio)
		fmt.Fprintf(&b, "placement time: shrinkwrap %.3fms, optimized %.3fms, all strategies %.3fms\n\n",
			t.Placement[Shrinkwrap].Seconds()*1e3, t.Placement[Optimized].Seconds()*1e3,
			(t.Placement[Baseline]+t.Placement[Shrinkwrap]+t.Placement[Optimized]+t.Placement[OptimizedExec]).Seconds()*1e3)
	}

	b.WriteString("Crossover: suite-total winner by machine (jump:spill = taken-jump penalty over mean spill latency)\n\n")
	fmt.Fprintf(&b, "%-14s %-14s %10s %-14s %12s\n", "machine", "costs", "jump:spill", "winner", "win vs base")
	for _, t := range totals {
		ratio := 100.0
		if t.Overhead[Baseline] != 0 {
			ratio = 100 * float64(t.Overhead[t.Winner]) / float64(t.Overhead[Baseline])
		}
		fmt.Fprintf(&b, "%-14s %-14s %10.2f %-14s %11.1f%%\n",
			t.Machine.Name, t.Machine.Costs.String(), t.Machine.Costs.SpillRatio(), t.Winner, ratio)
	}
	fmt.Fprintf(&b, "\nanalysis builds over %d machines, %d placed functions: liveness %d, dom %d, loops %d, pst %d, seed %d (each at most once per function)\n",
		len(sw.Machines), sw.Functions, sw.Builds.Liveness, sw.Builds.Dom, sw.Builds.Loops, sw.Builds.PST, sw.Builds.Seed)
	return b.String()
}

// SuiteStats merges every benchmark's VM execution counters into one
// suite-wide total per strategy. Merging is order-independent, so the
// totals are identical whether the benchmarks ran serially or in
// concurrent shards.
func SuiteStats(sw *Sweep) [numStrategies]vm.Stats {
	var out [numStrategies]vm.Stats
	for s := range out {
		out[s].Calls = make(map[string]int64)
	}
	for _, r := range sw.Results {
		for _, s := range Strategies {
			out[s].Merge(&r.Cells[0][s].Stats)
		}
	}
	return out
}

// Totals formats the merged suite-wide execution counters: dynamic
// instructions, total spill overhead, and its breakdown per strategy.
func Totals(sw *Sweep) string {
	stats := SuiteStats(sw)
	var b strings.Builder
	b.WriteString("Suite totals: merged dynamic counts across all benchmarks\n\n")
	fmt.Fprintf(&b, "%-14s %16s %14s %10s %10s %10s %10s %8s\n",
		"strategy", "instrs", "overhead", "saves", "restores", "spill.ld", "spill.st", "jumps")
	for _, s := range Strategies {
		st := &stats[s]
		fmt.Fprintf(&b, "%-14s %16d %14d %10d %10d %10d %10d %8d\n",
			s.String(), st.Instrs, st.Overhead(), st.Saves, st.Restores,
			st.SpillLoads, st.SpillStores, st.JumpBlockJmps)
	}
	return b.String()
}
