package server

// bench.go runs the standing end-to-end service benchmark: an
// in-process spillserve instance driven by the loadgen sweep (cold
// submissions, cached resubmissions, function-reordered variants)
// over a generated corpus. It lives here rather than in internal/bench
// because the sweep needs the service itself, and internal/bench is
// imported by the root package's tests — which would close an import
// cycle through the server's dependency on the facade.

import (
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"
)

// BenchRecord is the serialized BENCH_serve.json shape.
type BenchRecord struct {
	Suite     string `json:"suite"`
	Distinct  int    `json:"distinct"`
	Dups      int    `json:"dups"`
	Workers   int    `json:"workers"`
	Requests  int    `json:"requests"`
	Functions int    `json:"functions"`
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	Date      string `json:"date"`

	ColdNsPerReq   float64 `json:"cold_ns_per_req"`
	CachedNsPerReq float64 `json:"cached_ns_per_req"`
	// CachedSpeedup is cold-per-request over cached-per-request: how
	// much the content cache buys on identical resubmissions.
	CachedSpeedup float64 `json:"cached_speedup"`

	// Deterministic service-side counters: every cached-phase request
	// is a program-cache hit (Distinct*Dups) and every reordered
	// function a function-cache hit (Functions).
	ProgramHits   int64 `json:"program_hits"`
	ProgramMisses int64 `json:"program_misses"`
	FunctionHits  int64 `json:"function_hits"`
}

// benchSuite names the standing corpus; a record for any other corpus
// shape is not comparable.
const benchSuite = "irgen small corpus"

// Bench boots an in-process service and drives the full loadgen
// sweep: Distinct cold submissions, Distinct*Dups cached
// resubmissions, and Distinct reordered variants that must be
// assembled from the function-level cache.
func Bench(distinct, dups, workers int) (*BenchRecord, error) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, err := Loadgen(ts.Client(), ts.URL, LoadgenOptions{
		Distinct: distinct,
		Dups:     dups,
		Workers:  workers,
		Reorder:  true,
		Seed:     1,
	})
	if err != nil {
		return nil, fmt.Errorf("serve bench: %w", err)
	}
	return NewRecord(res), nil
}

// NewRecord maps a loadgen sweep result to the serialized
// BENCH_serve.json record, stamping host metadata.
func NewRecord(res *LoadgenResult) *BenchRecord {
	return &BenchRecord{
		Suite:          benchSuite,
		Distinct:       res.Distinct,
		Dups:           res.Dups,
		Workers:        res.Workers,
		Requests:       res.Requests,
		Functions:      res.Functions,
		GoVersion:      runtime.Version(),
		GOARCH:         runtime.GOARCH,
		Date:           time.Now().UTC().Format("2006-01-02"),
		ColdNsPerReq:   res.ColdNsPerReq,
		CachedNsPerReq: res.CachedNsPerReq,
		CachedSpeedup:  res.CachedSpeedup,
		ProgramHits:    res.ProgramHits,
		ProgramMisses:  res.ProgramMisses,
		FunctionHits:   res.FunctionHits,
	}
}
