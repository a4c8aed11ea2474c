// Command benchdiff is the benchmark-regression gate. For each
// committed BENCH_<name>.json record in the working directory it
// produces a fresh run of the record's standing configuration
// in-process and compares the two with the record's bench.Gate,
// failing (exit 1) on any finding.
//
//	benchdiff                  # gate every record
//	benchdiff vm serve         # gate only these
//	benchdiff -write-fresh DIR # also write each fresh record into DIR
//	                           # under its committed file name
//
// Every value must reproduce exactly unless the record's gate names it
// host-dependent; the only other checks are the declared timing ratios
// and absolute bounds. Regenerating a record is copying its fresh run
// over it; for the records with timing ratios (vm, serve), copy the
// run whose ratios are the median of three.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/workload"
)

// The standing configurations of the committed records. Each value is
// also a leaf of its record, so a change here fails the gate until the
// record is regenerated.
const (
	vmReps = 7

	serveDistinct = 500
	serveDups     = 19
	serveWorkers  = 4

	tieredSeed    = 1 // hostile-1 through hostile-12
	tieredN       = 12
	tieredQuantum = 2000
	tieredReps    = 3

	crossoverSeed = 1 // crossover-1 through crossover-10
	crossoverN    = 10
)

// record registers one committed BENCH_<name>.json: how the gate
// compares it, and the single producer of a fresh run.
type record struct {
	name  string
	gate  bench.Gate
	fresh func() (any, error)
}

func (r record) file() string { return "BENCH_" + r.name + ".json" }

var records = []record{
	{"vm", bench.Gate{
		Host:  []string{"wall_ns", "ns_per_run", "instrs_per_sec"},
		Ratio: map[string]float64{"speedup": 15},
	}, func() (any, error) { return bench.BenchVM(workload.SPECInt2000(), vmReps) }},

	{"machines", bench.Gate{
		Host: []string{"placement_ns"},
	}, func() (any, error) {
		var entries []bench.Entry
		for _, p := range workload.SPECInt2000() {
			entries = append(entries, bench.EntryFor(p))
		}
		sw, err := bench.RunSweep(entries, machine.Presets(), bench.Options{})
		if err != nil {
			return nil, err
		}
		return sw.Record("SPEC CPU2000 integer stand-ins"), nil
	}},

	// A faster cold path lowers the cached speedup, so it has no
	// absolute floor.
	{"serve", bench.Gate{
		Host:  []string{"cold_ns_per_req", "cached_ns_per_req"},
		Ratio: map[string]float64{"cached_speedup": 40},
	}, func() (any, error) { return server.Bench(serveDistinct, serveDups, serveWorkers) }},

	{"tiered", bench.Gate{
		Host: []string{"static_ns", "tiered_ns", "instrs_per_sec"},
		Min:  map[string]float64{"best_gain": bench.TieredGainFloor, "boundaries": 1},
	}, func() (any, error) {
		return bench.BenchTiered(bench.HostileSuite(tieredSeed, tieredN), tieredQuantum, tieredReps)
	}},

	{"crossover", bench.Gate{
		Min: map[string]float64{"flips": 1},
	}, func() (any, error) {
		return bench.RunCrossover(bench.CrossoverSuite(crossoverSeed, crossoverN), machine.Presets(), bench.Options{})
	}},
}

func main() {
	writeFresh := flag.String("write-fresh", "", "also write each fresh record into this directory under its committed file name")
	flag.Parse()

	selected, err := selectRecords(flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if *writeFresh != "" {
		if err := os.MkdirAll(*writeFresh, 0o755); err != nil {
			fatal(err)
		}
	}
	failed := false
	for _, r := range selected {
		start := time.Now()
		findings, err := gate(r, *writeFresh)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", r.name, err))
		}
		for _, f := range findings {
			fmt.Fprintf(os.Stderr, "REGRESSION: %s: %s\n", r.name, f)
		}
		failed = failed || len(findings) > 0
		fmt.Printf("%s: %d findings (%.1fs)\n", r.name, len(findings), time.Since(start).Seconds())
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchdiff: ok, no regressions")
}

// selectRecords returns the named records in registration order, or
// every record when no name is given.
func selectRecords(names []string) ([]record, error) {
	if len(names) == 0 {
		return records, nil
	}
	var out []record
	for _, r := range records {
		if slices.Contains(names, r.name) {
			out = append(out, r)
		}
	}
	for _, n := range names {
		if !slices.ContainsFunc(records, func(r record) bool { return r.name == n }) {
			return nil, fmt.Errorf("unknown record %q", n)
		}
	}
	return out, nil
}

// gate compares the committed record with a fresh run, first writing
// the fresh run into dir when dir is not empty.
func gate(r record, dir string) ([]string, error) {
	data, err := os.ReadFile(r.file())
	if err != nil {
		return nil, err
	}
	committed, err := bench.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.file(), err)
	}
	rec, err := r.fresh()
	if err != nil {
		return nil, err
	}
	data, err = json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if dir != "" {
		if err := os.WriteFile(filepath.Join(dir, r.file()), data, 0o644); err != nil {
			return nil, err
		}
	}
	fresh, err := bench.Decode(data)
	if err != nil {
		return nil, err
	}
	return r.gate.Compare(committed, fresh), nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
	os.Exit(1)
}
