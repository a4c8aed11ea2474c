// Command spillserve is spill placement as a service: it serves the
// spillopt pipeline over HTTP/JSON (see internal/server) or, with
// -loadgen, stress-drives a service with a generated corpus.
//
// Serve mode:
//
//	spillserve -addr :8080
//	spillserve -addr :8080 -j 4 -timeout 30s
//
// Endpoints: POST /v1/place (IR in, placements and priced overhead
// breakdowns out), GET /metrics (live counters), GET /healthz
// (pipeline self-check; non-empty findings → 500). Shutdown is
// graceful: SIGINT/SIGTERM stops accepting and drains in-flight
// requests.
//
// Loadgen mode:
//
//	spillserve -loadgen -distinct 500 -dups 19 -workers 4
//	spillserve -loadgen -target http://localhost:8080 -distinct 100 -dups 9
//
// Without -target the sweep runs against an in-process server (with
// the defaults, the configuration `benchdiff serve` gates); with
// -target it drives a running instance. The sweep submits each of
// -distinct generated programs once cold, -dups times identically
// (program-cache hits), and once function-reordered (function-cache
// hits), then reports per-phase latency and the service-side cache
// counter deltas.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "serve: listen address")
		jobs        = flag.Int("j", 1, "serve: per-request worker pool size")
		maxBody     = flag.Int64("max-body", 1<<20, "serve: request body limit in bytes (413 beyond)")
		timeout     = flag.Duration("timeout", 15*time.Second, "serve: per-request time limit")
		maxSteps    = flag.Int64("max-steps", 1<<26, "serve: VM step budget per execution")
		progEntries = flag.Int("program-entries", 4096, "serve: program cache entry budget")
		progMB      = flag.Int64("program-mb", 256, "serve: program cache byte budget in MiB")
		funcEntries = flag.Int("function-entries", 65536, "serve: function cache entry budget")
		funcMB      = flag.Int64("function-mb", 64, "serve: function cache byte budget in MiB")

		loadgen  = flag.Bool("loadgen", false, "run the loadgen sweep instead of serving")
		target   = flag.String("target", "", "loadgen: base URL of a running service (empty = in-process)")
		distinct = flag.Int("distinct", 500, "loadgen: distinct generated programs")
		dups     = flag.Int("dups", 19, "loadgen: identical resubmissions per program")
		workers  = flag.Int("workers", 4, "loadgen: concurrent client workers")
		seed     = flag.Uint64("seed", 1, "loadgen: corpus base seed")
	)
	flag.Parse()

	if *loadgen {
		runLoadgen(*target, *distinct, *dups, *workers, *seed)
		return
	}

	cfg := server.Config{
		MaxBodyBytes:         *maxBody,
		RequestTimeout:       *timeout,
		MaxVMSteps:           *maxSteps,
		Parallelism:          *jobs,
		ProgramCacheEntries:  *progEntries,
		ProgramCacheBytes:    *progMB << 20,
		FunctionCacheEntries: *funcEntries,
		FunctionCacheBytes:   *funcMB << 20,
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(cfg).Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Printf("spillserve: listening on %s (body limit %d bytes)\n", *addr, *maxBody)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case s := <-sig:
		fmt.Printf("spillserve: %v, draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal(fmt.Errorf("shutdown: %w", err))
		}
		fmt.Println("spillserve: drained, bye")
	}
}

func runLoadgen(target string, distinct, dups, workers int, seed uint64) {
	var record *server.BenchRecord
	if target == "" {
		// In-process: the sweep `benchdiff serve` re-runs.
		b, err := server.Bench(distinct, dups, workers)
		if err != nil {
			fatal(err)
		}
		record = b
	} else {
		res, err := server.Loadgen(http.DefaultClient, target, server.LoadgenOptions{
			Distinct: distinct,
			Dups:     dups,
			Workers:  workers,
			Reorder:  true,
			Seed:     seed,
		})
		if err != nil {
			fatal(err)
		}
		record = server.NewRecord(res)
	}

	fmt.Printf("loadgen: %d requests (%d distinct x %d dups + reorder, %d workers, %d functions)\n",
		record.Requests, record.Distinct, record.Dups, record.Workers, record.Functions)
	fmt.Printf("loadgen: cold %.0f ns/req, cached %.0f ns/req, speedup %.2fx\n",
		record.ColdNsPerReq, record.CachedNsPerReq, record.CachedSpeedup)
	fmt.Printf("loadgen: program hits %d, function hits %d\n", record.ProgramHits, record.FunctionHits)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "spillserve: %v\n", err)
	os.Exit(1)
}
