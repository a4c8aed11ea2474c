// Command benchmark measures POST /v1/place end to end and per layer.
// It runs one in-process server behind a loopback listener, drives it
// with a closed loop of one client for a fixed time, checks every
// reply, and prints every metric by name with its unit. With --trace 1
// it also replays a sample of the workload's requests through a
// replica of the server's miss path that times each layer from
// outside, and prints the per-layer metrics instead.
//
//	bash benchmark/run.sh --workload cold-compile --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh --compare runsA runsB
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// params are one run's settings. The command line sets the first
// four; the rest scale a run and are fixed, except in the smoke test.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool

	traceOut    string  // span file of a traced run
	warm        int     // warm-up requests, from programs the timed phase never sends
	setups      int     // set-ups timed; setup_s is their median
	costSample  int     // untiered programs spill_cost_ratio is taken over
	traceSample int     // distinct requests the traced run replays
	corpusScale float64 // share of the workload's distinct programs generated
}

func defaultParams() params {
	return params{warm: 200, setups: 40, costSample: 800, traceSample: 1000, corpusScale: 1}
}

func main() {
	p := defaultParams()
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "seed selecting every corpus the run draws")
	seconds := flag.Float64("seconds", 25, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 replays a sample with per-layer spans and prints the per-layer metrics")
	compare := flag.Bool("compare", false, "compare two directories of run outputs: --compare A B")
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("--compare takes two directories")
			break
		}
		err = compareRuns(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("--trace takes 0 or 1")
	default:
		p.workload, p.seed, p.seconds, p.trace = *workload, *seed, *seconds, *trace == 1
		p.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", p.workload, p.seed))
		err = runAndReport(os.Stdout, p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metric is one printed measurement; n is its sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runAndReport(out io.Writer, p params) error {
	ms, chk, err := run(out, p)
	if err != nil {
		return err
	}
	res := result{Correct: chk.wrong == 0, Attempted: chk.attempted, Failed: chk.failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		fmt.Fprintf(out, "%-34s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		res.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	fmt.Fprintf(out, "failed %d of %d requests (%.4g): %d rejected, %d wrong\n",
		chk.failed, chk.attempted, float64(chk.failed)/float64(max(1, chk.attempted)), chk.failed-chk.wrong, chk.wrong)
	for _, f := range chk.first {
		fmt.Fprintf(out, "FAIL workload=%s seed=%d status=%d error=%.300s\n", chk.workload, f.seed, f.status, f.msg)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(line))
	return nil
}

// run performs one benchmark run and returns its metrics in print
// order.
func run(out io.Writer, p params) ([]metric, *checker, error) {
	w, err := findWorkload(p.workload)
	if err != nil {
		return nil, nil, err
	}
	if p.seconds <= 0 {
		return nil, nil, fmt.Errorf("--seconds must be positive")
	}
	c, err := buildCorpus(w, p.seed, p.warm, max(1, int(float64(w.distinct)*p.corpusScale)))
	if err != nil {
		return nil, nil, err
	}
	chk := newChecker(w.name)
	// The collections also leave no cycle over the corpus in progress
	// for the set-ups to pay for.
	heap0 := liveHeap()

	// The first set-up in a process pays one-time costs (code paging,
	// lazy initialisation) that no later one repeats; it is not timed.
	// The last server started is the service under test. A probe before
	// each timed set-up gauges the host while they run: the host can
	// change speed between them and the timed phase.
	var svc *service
	setups := make([]float64, p.setups)
	setupProbes := make([]time.Duration, 0, p.setups)
	pr := newProbe()
	for i := -1; i < p.setups; i++ {
		if i >= 0 {
			setupProbes = append(setupProbes, pr.run())
		}
		start := time.Now()
		s, err := startService()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if i >= 0 {
			setups[i] = time.Since(start).Seconds()
		}
		if svc != nil {
			svc.close()
		}
		svc = s
	}
	defer svc.close()

	sendAll(svc, len(c.warm), c.warmUp, chk)
	if w.resubmit {
		sendAll(svc, 2*len(c.timed), c.prime, chk)
	}
	capture := 0
	if p.trace {
		capture = p.traceSample
	}
	load, err := runLoad(svc, c, chk, p.seconds, capture)
	if err != nil {
		return nil, nil, err
	}
	t := windowTimings(out, load)
	if len(t.p50) == 0 {
		return nil, nil, fmt.Errorf("no request completed in %.1fs", p.seconds)
	}
	slow, setupSlow := slowdown(load.probes), slowdown(setupProbes)
	fmt.Fprintf(out, "host slowdown %.4g in the timed phase, %.4g in set-up (median of %d and %d probes over %v); end-to-end times are divided by it\n",
		slow, setupSlow, len(load.probes), len(setupProbes), probeNominal)
	if p.trace {
		layers, err := layerMetrics(svc, c, load, t, chk, p, heap0, slow)
		return layers, chk, err
	}

	ratio, used, err := spillCostRatio(svc, c, chk, p.costSample)
	if err != nil {
		return nil, nil, err
	}
	reqs := len(load.lat)
	return []metric{
		{"setup_s", median(setups) / setupSlow, "s", len(setups)},
		{"req_p50_ms", median(t.p50) / slow, "ms", reqs},
		{"cpu_ms_per_req", median(t.cpu) / slow, "ms", reqs},
		{"alloc_kb_per_req", float64(load.alloc) / 1024 / float64(reqs), "KiB", reqs},
		{"spill_cost_ratio", ratio, "ratio", used},
	}, chk, nil
}

// layerMetrics derives the per-layer metrics from the timed phase's
// cache and server counters and from the traced replay, then reads the
// heap the service retains.
func layerMetrics(svc *service, c *corpus, load *loadResult, t timings, chk *checker, p params, heap0 uint64, slow float64) ([]metric, error) {
	timed := len(load.lat)
	b, e := load.before, load.after
	handled := (e.Latency.Cold.Count - b.Latency.Cold.Count) + (e.Latency.Cached.Count - b.Latency.Cached.Count)
	handlerNs := (e.Latency.Cold.SumNs - b.Latency.Cold.SumNs) + (e.Latency.Cached.SumNs - b.Latency.Cached.SumNs)
	coldNs := float64(e.Latency.Cold.SumNs-b.Latency.Cold.SumNs) / float64(max(1, e.Latency.Cold.Count-b.Latency.Cold.Count))
	handlerMean := float64(handlerNs) / float64(max(1, handled))
	var clientNs float64
	for _, d := range load.lat {
		clientNs += float64(d)
	}
	clientMean := clientNs / float64(timed)
	lat := slices.Clone(load.lat)
	slices.Sort(lat)
	ms := []metric{
		{"req_per_s", median(t.rate), "1/s", timed},
		{"req_p99_ms", millis(percentile(lat, 0.99)), "ms", timed},
		{"host.slowdown", slow, "ratio", len(load.probes)},
		{"server.program_hit_ratio", float64(load.cacheHits["program"]) / float64(timed), "ratio", timed},
		{"server.function_hit_ratio", float64(load.cacheHits["function"]) / float64(timed), "ratio", timed},
		{"server.cold_avg_ms", coldNs / 1e6, "ms", int(e.Latency.Cold.Count - b.Latency.Cold.Count)},
		{"server.handler_avg_ms", handlerMean / 1e6, "ms", int(handled)},
		{"server.analysis_drops_per_req", float64(e.AnalysisCache.Drops-b.AnalysisCache.Drops) / float64(timed), "count", timed},
		{"http.overhead_ms", (clientMean - handlerMean) / 1e6, "ms", timed},
		{"go.gc_cpu_frac", load.gcCPU / load.cpu.Seconds(), "ratio", timed},
	}
	layers, err := traceMetrics(svc, c, load, chk, p)
	if err != nil {
		return nil, err
	}
	ms = append(ms, layers...)

	// What the benchmark keeps goes before the heap is read: the
	// replies kept for the replica and for byte identity, and the
	// latency samples, which would make a faster service read as a
	// larger heap.
	load.lat, load.windows, load.captured, chk.expect = nil, nil, nil, nil
	heap1 := liveHeap()
	// The corpus was in the first reading too.
	runtime.KeepAlive(c)
	return append(ms, metric{"retained_heap_mb", (float64(heap1) - float64(heap0)) / (1 << 20), "MiB", 1}), nil
}

// traceMetrics runs the traced replay and derives the per-layer
// metrics from its spans and counts.
func traceMetrics(svc *service, c *corpus, load *loadResult, chk *checker, p params) ([]metric, error) {
	reqs, want, progs, err := sampleRequests(svc, c, load, chk, p.traceSample)
	if err != nil {
		return nil, err
	}
	rr := replay(reqs, want, chk, progs)
	if err := rr.tracer.write(p.traceOut); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	self, total := rr.tracer.selfTimes()
	n := len(reqs)
	per := func(v int64) float64 { return float64(v) / float64(n) }
	var ms []metric
	for _, name := range spanNames {
		ms = append(ms, metric{name + ".share", self[name].Seconds() / total.Seconds(), "ratio", n})
	}
	for _, name := range selfMsSpans {
		ms = append(ms, metric{name + ".self_ms", millis(self[name]) / float64(n), "ms", n})
	}
	k := rr.counts
	a := k.analysis
	vmTime := self["profile.collect"] + self["vm.exec"]
	return append(ms,
		metric{"analysis.builds.liveness", per(int64(a.Liveness)), "count", n},
		metric{"analysis.builds.pst", per(int64(a.PST)), "count", n},
		metric{"analysis.builds.splitdom", per(int64(a.SplitDom)), "count", n},
		metric{"analysis.builds.seed", per(int64(a.Seed)), "count", n},
		metric{"analysis.delta_patched", per(int64(a.DeltaPatched)), "count", n},
		metric{"analysis.delta_full", per(int64(a.DeltaFull)), "count", n},
		metric{"vm.profile_instrs", per(k.profInstrs), "count", n},
		metric{"vm.run_instrs", per(k.runInstrs), "count", n},
		metric{"vm.instrs_per_s", float64(k.profInstrs+k.runInstrs) / vmTime.Seconds(), "1/s", n},
		metric{"spillopt.spill_instrs", per(k.spill), "count", n},
		metric{"spillopt.save_restore_instrs", per(k.saveRestore), "count", n},
		metric{"spillopt.jump_block_instrs", per(k.jumpBlock), "count", n},
		metric{"tier.boundary_frac", per(int64(k.boundaries)), "ratio", n},
		metric{"tier.replaced_per_req", per(k.replaced), "count", n},
		metric{"trace.overhead_frac", rr.traced.Seconds()/rr.untraced.Seconds() - 1, "ratio", n},
		metric{"trace.unattributed_frac", self["request"].Seconds() / total.Seconds(), "ratio", n},
	), nil
}

// timings are the timed phase's per-window measurements.
type timings struct{ p50, rate, cpu []float64 }

// windowTimings measures each window of the timed phase and prints
// them; the reported timings are medians over the windows.
func windowTimings(out io.Writer, load *loadResult) timings {
	var t timings
	for i, w := range load.windows {
		if len(w.lat) == 0 {
			continue
		}
		lat := slices.Clone(w.lat)
		slices.Sort(lat)
		t.p50 = append(t.p50, millis(percentile(lat, 0.50)))
		t.rate = append(t.rate, float64(len(lat))/w.wall.Seconds())
		t.cpu = append(t.cpu, millis(w.cpu)/float64(len(lat)))
		fmt.Fprintf(out, "window %d: n=%d p50=%.4gms rate=%.5g/s cpu=%.4gms/req\n",
			i+1, len(lat), t.p50[len(t.p50)-1], t.rate[len(t.rate)-1], t.cpu[len(t.cpu)-1])
	}
	return t
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
