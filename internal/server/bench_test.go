package server

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/bench"
)

// benchServeSmall runs the real in-process sweep once at test scale.
func benchServeSmall(t *testing.T) *BenchRecord {
	t.Helper()
	b, err := Bench(24, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// serveGate is BENCH_serve.json's gate at test scale: latencies are
// host leaves, and the cached speedup may fall 15%.
var serveGate = bench.Gate{
	Host:  []string{"cold_ns_per_req", "cached_ns_per_req"},
	Ratio: map[string]float64{"cached_speedup": 15},
}

// serveFindings compares two records as cmd/benchdiff does, through
// their JSON.
func serveFindings(t *testing.T, committed, fresh *BenchRecord) []string {
	t.Helper()
	var trees [2]any
	for i, rec := range []*BenchRecord{committed, fresh} {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if trees[i], err = bench.Decode(data); err != nil {
			t.Fatal(err)
		}
	}
	return serveGate.Compare(trees[0], trees[1])
}

func TestServeGatePassesOnIdenticalSweep(t *testing.T) {
	b := benchServeSmall(t)
	if findings := serveFindings(t, b, b); len(findings) != 0 {
		t.Fatalf("identical sweep produced findings: %v", findings)
	}
}

func TestServeGateCountersAreDeterministic(t *testing.T) {
	b := benchServeSmall(t)
	if b.ProgramHits != int64(b.Distinct*b.Dups) {
		t.Errorf("program hits %d, want %d", b.ProgramHits, b.Distinct*b.Dups)
	}
	if b.FunctionHits != int64(b.Functions) {
		t.Errorf("function hits %d, want %d", b.FunctionHits, b.Functions)
	}
	if b.Requests != b.Distinct*(2+b.Dups) {
		t.Errorf("requests %d, want %d", b.Requests, b.Distinct*(2+b.Dups))
	}
}

func TestServeGateCatchesInjectedRegression(t *testing.T) {
	fresh := benchServeSmall(t)
	committed := *fresh
	fresh.CachedNsPerReq *= 6
	fresh.CachedSpeedup /= 6
	if !containsSubstr(serveFindings(t, &committed, fresh), "cached_speedup: ") {
		t.Error("gate passed an injected 500% regression of the cached path")
	}
}

func TestServeGateCatchesBrokenCaching(t *testing.T) {
	b := benchServeSmall(t)

	broken := *b
	broken.ProgramHits = 0
	if findings := serveFindings(t, b, &broken); !containsSubstr(findings, "program_hits: fresh 0") {
		t.Errorf("zero program hits not flagged: %v", findings)
	}

	broken = *b
	broken.FunctionHits = 0
	if findings := serveFindings(t, b, &broken); !containsSubstr(findings, "function_hits: fresh 0") {
		t.Errorf("zero function hits not flagged: %v", findings)
	}
}

func TestServeGateCatchesSuiteMismatch(t *testing.T) {
	b := benchServeSmall(t)
	committed := *b
	committed.Distinct++
	if findings := serveFindings(t, &committed, b); !containsSubstr(findings, "distinct: fresh 24, committed 25") {
		t.Errorf("sweep-shape mismatch not flagged: %v", findings)
	}
}

func containsSubstr(findings []string, substr string) bool {
	for _, f := range findings {
		if strings.Contains(f, substr) {
			return true
		}
	}
	return false
}
