package bench

// serve.go is the regression gate for the placement service's
// end-to-end benchmark: an in-process spillserve instance driven by
// the loadgen sweep (cold submissions, cached resubmissions,
// function-reordered variants) over a generated corpus. The sweep
// itself runs in internal/server (server.Bench — this package stays
// import-cycle-free of the service); the serialized record
// (BENCH_serve.json) is gated by cmd/benchdiff -serve: the
// cached-over-cold speedup is the service's reason to exist, and the
// cache counters are deterministic, so a drift in either is a
// regression (or a stale record).

import (
	"fmt"
)

// ServeBench is the serialized BENCH_serve.json shape.
type ServeBench struct {
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

	// Deterministic service-side counters (see CompareServe).
	ProgramHits   int64 `json:"program_hits"`
	ProgramMisses int64 `json:"program_misses"`
	FunctionHits  int64 `json:"function_hits"`

	// Eviction policy observability: the analysis cache's high-water
	// mark must stay within budget plus in-flight slack.
	AnalysisBudget int `json:"analysis_budget"`
	AnalysisLenMax int `json:"analysis_len_max"`
	AnalysisDrops  int `json:"analysis_drops"`
}

// CompareServe diffs a fresh service sweep against the committed
// record. Absolute latency depends on the host, so the gate compares
// host-independent quantities:
//
//   - the cached-over-cold speedup must not regress more than
//     thresholdPct percent below the committed ratio (both phases run
//     on the same host in the same process, so host speed cancels).
//     There is no absolute floor on the ratio: a faster cold path
//     lowers it without the cache getting any slower, so the committed
//     record, regenerated when the cold path changes, is the baseline;
//   - the cache counters are deterministic for a deduplicated corpus:
//     every cached-phase request is a program-cache hit
//     (Distinct*Dups) and every reordered function a function-cache
//     hit (Functions) — a drift means caching silently broke;
//   - the analysis cache's high-water mark must stay within its
//     budget plus in-flight slack, and the eviction policy must have
//     actually dropped handles (the budget sits far below the corpus's
//     function population by construction).
func CompareServe(committed, fresh *ServeBench, thresholdPct float64) []string {
	var findings []string
	if committed.Suite != fresh.Suite || committed.Distinct != fresh.Distinct ||
		committed.Dups != fresh.Dups || committed.Workers != fresh.Workers {
		findings = append(findings, fmt.Sprintf(
			"serve: committed record covers %s (distinct=%d dups=%d workers=%d), fresh sweep %s (distinct=%d dups=%d workers=%d) — regenerate BENCH_serve.json with the standing sweep",
			committed.Suite, committed.Distinct, committed.Dups, committed.Workers,
			fresh.Suite, fresh.Distinct, fresh.Dups, fresh.Workers))
		return findings
	}
	if committed.CachedSpeedup > 0 {
		floor := committed.CachedSpeedup * (1 - thresholdPct/100)
		if fresh.CachedSpeedup < floor {
			findings = append(findings, fmt.Sprintf(
				"serve: cached speedup %.2fx regressed more than %.0f%% below committed %.2fx (floor %.2fx)",
				fresh.CachedSpeedup, thresholdPct, committed.CachedSpeedup, floor))
		}
	}
	if want := int64(fresh.Distinct * fresh.Dups); fresh.ProgramHits != want {
		findings = append(findings, fmt.Sprintf(
			"serve: %d program-cache hits for %d cached resubmissions — program-level caching broke",
			fresh.ProgramHits, want))
	}
	if fresh.FunctionHits != int64(fresh.Functions) {
		findings = append(findings, fmt.Sprintf(
			"serve: %d function-cache hits for %d reordered functions — function-level caching broke",
			fresh.FunctionHits, fresh.Functions))
	}
	if slack := fresh.AnalysisBudget + 8*fresh.Workers; fresh.AnalysisLenMax > slack {
		findings = append(findings, fmt.Sprintf(
			"serve: analysis cache high-water mark %d exceeds budget %d plus in-flight slack (%d) — the eviction policy stopped bounding it",
			fresh.AnalysisLenMax, fresh.AnalysisBudget, slack))
	}
	if fresh.Functions > fresh.AnalysisBudget && fresh.AnalysisDrops == 0 {
		findings = append(findings, fmt.Sprintf(
			"serve: %d functions against budget %d but zero analysis drops — eviction never ran",
			fresh.Functions, fresh.AnalysisBudget))
	}
	return findings
}

// InjectServeRegression artificially degrades a fresh service record
// by pct percent, for the gate's self-test.
func InjectServeRegression(b *ServeBench, pct float64) {
	b.CachedNsPerReq *= 1 + pct/100
	b.CachedSpeedup /= 1 + pct/100
}
