// Command spillopt compiles a textual IR program through the pipeline:
// profile by execution, allocate registers, place callee-saved
// save/restore code with a chosen strategy, and report the measured
// dynamic overhead (optionally printing the transformed program).
//
// Usage:
//
//	spillopt [-strategy hierarchical-jump] [-machine preset] [-alloc-machine] [-layout] [-arg N] [-print] [-compare] prog.ir
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
)

func main() {
	strategy := flag.String("strategy", "hierarchical-jump",
		"placement strategy: "+strings.Join(spillopt.Strategies(), ", "))
	arg := flag.Int64("arg", 100, "argument passed to the program's main")
	show := flag.Bool("print", false, "print the transformed program")
	dotFunc := flag.String("dot", "", "print the named function's CFG in Graphviz DOT format and exit")
	compare := flag.Bool("compare", false, "run every strategy and compare overheads")
	mach := flag.String("machine", "", "machine cost preset the placement optimizes and the cost column prices (e.g. classic, deep-pipeline; default: the paper's unit-cost machine)")
	layoutF := flag.Bool("layout", false, "run profile-guided jump alignment (layout.Align) before placement, so the hottest edges fall through and the reclassified edge kinds feed the placement cost model")
	allocMachine := flag.Bool("alloc-machine", false, "price the allocator's spill choices with the machine's cost surface (UseMachineAllocation) instead of uniform weights")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: spillopt [flags] prog.ir")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	if *compare {
		fmt.Printf("%-18s %10s %10s %8s %8s %8s %8s\n",
			"strategy", "overhead", "cost", "saves", "restores", "spill", "jumps")
		for _, name := range spillopt.Strategies() {
			res, err := runOne(string(src), name, *arg, *mach, *layoutF, *allocMachine)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err))
			}
			fmt.Printf("%-18s %10d %10d %8d %8d %8d %8d\n", name, res.Overhead, res.Cost,
				res.Saves, res.Restores, res.SpillLoads+res.SpillStores, res.JumpBlockJumps)
		}
		return
	}

	prog, err := buildOpts(string(src), *strategy, *arg, *mach, *layoutF, *allocMachine)
	if err != nil {
		fatal(err)
	}
	if *dotFunc != "" {
		d, err := prog.DotCFG(*dotFunc)
		if err != nil {
			fatal(err)
		}
		fmt.Print(d)
		return
	}
	res, err := prog.Run(*arg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("result=%d instructions=%d overhead=%d cost=%d (saves=%d restores=%d spill=%d jump=%d)\n",
		res.Value, res.Instrs, res.Overhead, res.Cost, res.Saves, res.Restores,
		res.SpillLoads+res.SpillStores, res.JumpBlockJumps)
	if *show {
		fmt.Print(prog.Text())
	}
}

func buildOpts(src, strategy string, arg int64, mach string, layout, allocMachine bool) (*spillopt.Program, error) {
	s, err := spillopt.ParseStrategy(strategy)
	if err != nil {
		return nil, err
	}
	prog, err := spillopt.ParseProgram(src)
	if err != nil {
		return nil, err
	}
	if mach != "" {
		if err := prog.UseMachine(mach); err != nil {
			return nil, err
		}
	}
	if allocMachine {
		if err := prog.UseMachineAllocation(); err != nil {
			return nil, err
		}
	}
	if layout {
		if err := prog.UseLayout(); err != nil {
			return nil, err
		}
	}
	if err := prog.Profile(arg); err != nil {
		return nil, err
	}
	if err := prog.Allocate(); err != nil {
		return nil, err
	}
	if err := prog.Place(s); err != nil {
		return nil, err
	}
	return prog, nil
}

func runOne(src, strategy string, arg int64, mach string, layout, allocMachine bool) (*spillopt.Result, error) {
	prog, err := buildOpts(src, strategy, arg, mach, layout, allocMachine)
	if err != nil {
		return nil, err
	}
	return prog.Run(arg)
}

func fatal(err error) {
	// The facade's own errors already start with the package name.
	fmt.Fprintf(os.Stderr, "spillopt: %s\n", strings.TrimPrefix(err.Error(), "spillopt: "))
	os.Exit(1)
}
