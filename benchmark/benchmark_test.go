package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"testing"

	"repro/internal/par"
	"repro/internal/server"
)

// tiny shrinks a run to a fraction of a second per workload.
func tiny(workload string, trace bool) params {
	p := defaultParams()
	p.workload, p.seed, p.seconds, p.trace = workload, 7, 0.2, trace
	p.warm, p.setups, p.costSample, p.traceSample = 2, 1, 3, 3
	p.corpusScale = 0.0015
	return p
}

// TestSmoke runs every workload at tiny scale, both untraced and
// traced, and checks that each prints every metric BENCHMARK.json
// names with its unit, that the replica's replies equal the server's,
// and that the exact end-to-end metrics repeat across runs.
func TestSmoke(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var ratios []float64
			for range 2 {
				ms, chk, err := run(io.Discard, tiny(w.name, false))
				if err != nil {
					t.Fatal(err)
				}
				checkRun(t, ms, chk, sp.EndToEnd)
				ratios = append(ratios, byName(ms)["spill_cost_ratio"].value)
			}
			if ratios[0] != ratios[1] {
				t.Errorf("spill_cost_ratio %v then %v for one seed", ratios[0], ratios[1])
			}

			p := tiny(w.name, true)
			p.traceOut = t.TempDir() + "/trace.jsonl"
			ms, chk, err := run(io.Discard, p)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, ms, chk, sp.PerLayer)
			if _, err := os.Stat(p.traceOut); err != nil {
				t.Errorf("no trace file: %v", err)
			}
		})
	}
}

// checkRun asserts a run returned no wrong reply and printed exactly
// the metrics named, each with its unit. Rejections are the service's
// to fix, not the benchmark's.
func checkRun(t *testing.T, ms []metric, chk *checker, want []specMetric) {
	t.Helper()
	if chk.wrong != 0 || chk.attempted == 0 {
		t.Fatalf("%d of %d replies wrong: %+v", chk.wrong, chk.attempted, chk.first)
	}
	got := byName(ms)
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", m.Name)
		case g.unit != m.Unit:
			t.Errorf("metric %s printed in %s, BENCHMARK.json says %s", m.Name, g.unit, m.Unit)
		}
	}
}

func byName(ms []metric) map[string]metric {
	out := make(map[string]metric, len(ms))
	for _, m := range ms {
		out[m.name] = m
	}
	return out
}

// TestReplicaMatchesServer replays requests of every workload through
// the replica, including rejected ones, whose error replies must match
// too, and checks each reply against the server's.
func TestReplicaMatchesServer(t *testing.T) {
	svc, err := startService()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	for _, w := range workloads {
		rejected := rejectedSeeds[w.name]
		for _, seed := range append([]uint64{1, 2}, rejected[:min(2, len(rejected))]...) {
			p, err := w.program(seed, false)
			if err != nil {
				t.Fatal(err)
			}
			var req server.PlaceRequest
			if err := json.Unmarshal(p.body, &req); err != nil {
				t.Fatal(err)
			}
			status, _, want, err := svc.post(p.body)
			if err != nil {
				t.Fatal(err)
			}
			var n counts
			gotStatus, got := replicate(req, newTracer(true), &n)
			if gotStatus != status || string(got) != string(want) {
				t.Errorf("%s seed %d: replica %d %s, server %d %s", w.name, seed, gotStatus, got, status, want)
			}
		}
	}
}

// TestRejectedSeeds checks that the service still rejects every seed
// the workloads leave out, so that the list shrinks with each fix.
func TestRejectedSeeds(t *testing.T) {
	svc, err := startService()
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	for _, w := range workloads {
		seeds := rejectedSeeds[w.name]
		err := par.Do(len(seeds), workers, func(i int) error {
			p, err := w.program(seeds[i], false)
			if err != nil {
				return err
			}
			status, _, _, err := svc.post(p.body)
			if err != nil {
				return err
			}
			if status == http.StatusOK {
				t.Errorf("%s seed %d: accepted; remove it from rejectedSeeds", w.name, seeds[i])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "req_p50_ms", Better: "lower", Bound: 0.1}
	a := []float64{10, 10.1, 9.9, 10.05, 9.95}
	cases := []struct {
		b    []float64
		want string
	}{
		{[]float64{8, 8.1, 7.9, 8.05, 7.95}, "better"},
		{[]float64{10.02, 10.08, 9.92, 10.01, 9.97}, "same"},
		{[]float64{12, 12.1, 11.9, 12.05, 11.95}, "worse"},
	}
	for _, c := range cases {
		if _, got := judge(a, c.b, lower); got != c.want {
			t.Errorf("judge(%v) = %s, want %s", c.b, got, c.want)
		}
	}
	noisy := []float64{5, 15, 10, 7, 13}
	if _, got := judge(noisy, []float64{9, 14, 11, 6, 12}, lower); got != "unresolved" {
		t.Errorf("spread wider than the bound judged %s, want unresolved", got)
	}
}
