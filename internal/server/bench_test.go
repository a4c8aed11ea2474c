package server

import (
	"strings"
	"testing"

	"repro/internal/bench"
)

// benchServeSmall runs the real in-process sweep once at test scale.
func benchServeSmall(t *testing.T) *bench.ServeBench {
	t.Helper()
	b, err := Bench(8, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServeGatePassesOnIdenticalSweep(t *testing.T) {
	b := benchServeSmall(t)
	if findings := bench.CompareServe(b, b, 15); len(findings) != 0 {
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
	bench.InjectServeRegression(fresh, 500)
	findings := bench.CompareServe(&committed, fresh, 15)
	if len(findings) == 0 {
		t.Fatal("gate passed an injected 500% regression")
	}
	if !containsSubstr(findings, "regressed") {
		t.Errorf("no speedup finding in %v", findings)
	}
}

func TestServeGateCatchesBrokenCaching(t *testing.T) {
	b := benchServeSmall(t)
	committed := *b

	broken := *b
	broken.ProgramHits = 0
	if findings := bench.CompareServe(&committed, &broken, 15); !containsSubstr(findings, "program-level caching broke") {
		t.Errorf("zero program hits not flagged: %v", findings)
	}

	broken = *b
	broken.FunctionHits = 0
	if findings := bench.CompareServe(&committed, &broken, 15); !containsSubstr(findings, "function-level caching broke") {
		t.Errorf("zero function hits not flagged: %v", findings)
	}

	broken = *b
	broken.AnalysisLenMax = broken.AnalysisBudget * 100
	if findings := bench.CompareServe(&committed, &broken, 15); !containsSubstr(findings, "eviction policy stopped bounding") {
		t.Errorf("unbounded analysis cache not flagged: %v", findings)
	}

	broken = *b
	broken.AnalysisDrops = 0
	broken.Functions = broken.AnalysisBudget * 2
	broken.FunctionHits = int64(broken.Functions)
	if findings := bench.CompareServe(&committed, &broken, 15); !containsSubstr(findings, "eviction never ran") {
		t.Errorf("zero drops not flagged: %v", findings)
	}
}

func TestServeGateCatchesSuiteMismatch(t *testing.T) {
	b := benchServeSmall(t)
	committed := *b
	committed.Distinct++
	findings := bench.CompareServe(&committed, b, 15)
	if !containsSubstr(findings, "regenerate BENCH_serve.json") {
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
