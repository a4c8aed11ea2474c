package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/par"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, req PlaceRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/place", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// testProgram is a seeded generated program plus profiling args, the
// same corpus loadgen uses.
func testProgram(seed uint64) string {
	return irtext.Print(irgen.Generate(seed, irgen.Small()))
}

// TestPlaceMatchesDirectPipeline: the service's response must be
// byte-identical to the JSON assembled from a direct spillopt run of
// the same program — the service adds transport and caching, never
// different results.
func TestPlaceMatchesDirectPipeline(t *testing.T) {
	src := testProgram(3)
	args := []int64{5}

	// Direct pipeline, mirroring the server's response assembly.
	prog, err := spillopt.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.UseMachine("classic"); err != nil {
		t.Fatal(err)
	}
	if err := prog.Profile(args...); err != nil {
		t.Fatal(err)
	}
	hashes := funcHashes(prog.IRFuncs())
	if err := prog.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := prog.Place(spillopt.HierarchicalJump); err != nil {
		t.Fatal(err)
	}
	reports, err := prog.Report()
	if err != nil {
		t.Fatal(err)
	}
	want := &PlaceResponse{Machine: "classic", Strategy: "hierarchical-jump"}
	for i, r := range reports {
		want.Functions = append(want.Functions, FunctionEntry{Hash: hashes[i], FunctionReport: r})
		want.TotalOverhead += r.Overhead
		want.TotalCost += r.Cost
	}
	wantBody, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{})
	resp, got := post(t, ts, PlaceRequest{IR: src, Args: args})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, wantBody) {
		t.Errorf("service response differs from direct pipeline:\n got %s\nwant %s", got, wantBody)
	}
	if c := resp.Header.Get("X-Cache"); c != cacheMiss {
		t.Errorf("first submission X-Cache = %q, want %q", c, cacheMiss)
	}

	// Identical resubmission: byte-identical and a program-cache hit.
	resp2, got2 := post(t, ts, PlaceRequest{IR: src, Args: args})
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(got, got2) {
		t.Errorf("resubmission differs: status %d", resp2.StatusCode)
	}
	if c := resp2.Header.Get("X-Cache"); c != cacheProgram {
		t.Errorf("resubmission X-Cache = %q, want %q", c, cacheProgram)
	}
}

// TestReorderedProgramHitsFunctionCache: reversing the definition
// order changes the canonical program (program-cache miss) but not
// the per-function bodies or weights, so the response is assembled
// entirely from function-cache hits — and agrees with the original's
// per-function reports.
func TestReorderedProgramHitsFunctionCache(t *testing.T) {
	src := testProgram(4)
	prog, err := irtext.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	reordered := irtext.Print(reverseFuncs(prog))
	if reordered == src {
		t.Fatal("reordering did not change the text")
	}

	s, ts := newTestServer(t, Config{})
	resp1, body1 := post(t, ts, PlaceRequest{IR: src, Args: []int64{5}})
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	resp2, body2 := post(t, ts, PlaceRequest{IR: reordered, Args: []int64{5}})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp2.StatusCode, body2)
	}
	if c := resp2.Header.Get("X-Cache"); c != cacheFunction {
		t.Errorf("reordered submission X-Cache = %q, want %q", c, cacheFunction)
	}
	var r1, r2 PlaceResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.TotalCost != r2.TotalCost || len(r1.Functions) != len(r2.Functions) {
		t.Errorf("reordered totals differ: %d vs %d", r1.TotalCost, r2.TotalCost)
	}
	byName := map[string]FunctionEntry{}
	for _, e := range r1.Functions {
		byName[e.Function] = e
	}
	for _, e := range r2.Functions {
		if byName[e.Function] != e {
			t.Errorf("function %s entry differs across orderings", e.Function)
		}
	}
	if st := s.funcCache.Stats(); st.Hits != int64(len(r1.Functions)) {
		t.Errorf("function cache hits = %d, want %d", st.Hits, len(r1.Functions))
	}
}

// TestCanonicalKey: a submission the parser finds canonical is keyed
// on its own text without printing it again, and that key must be the
// one a reformatted submission of the same program reaches through
// its printed text. On fresh servers, the variant after the canonical
// text and the canonical text after the variant are each answered
// from the program cache, byte for byte.
func TestCanonicalKey(t *testing.T) {
	src := testProgram(6)
	prog, err := spillopt.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Canonical() {
		t.Fatal("a printed program did not parse as canonical")
	}
	// A comment line and doubled spaces: the same program, not
	// canonical, and not equal to src, so the raw keys differ.
	variant := "# a reformatted submission\n" + strings.ReplaceAll(src, ", ", ",  ")
	if prog, err := spillopt.ParseProgram(variant); err != nil || prog.Canonical() {
		t.Fatalf("variant: error %v, or parsed as canonical", err)
	}
	for _, order := range [][2]string{{src, variant}, {variant, src}} {
		_, ts := newTestServer(t, Config{})
		resp1, body1 := post(t, ts, PlaceRequest{IR: order[0], Args: []int64{5}})
		if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Cache") != cacheMiss {
			t.Fatalf("first request: status %d, X-Cache %q: %s", resp1.StatusCode, resp1.Header.Get("X-Cache"), body1)
		}
		resp2, body2 := post(t, ts, PlaceRequest{IR: order[1], Args: []int64{5}})
		if c := resp2.Header.Get("X-Cache"); resp2.StatusCode != http.StatusOK || c != cacheProgram {
			t.Errorf("canonical first %v: second request status %d, X-Cache %q, want %q",
				order[0] == src, resp2.StatusCode, c, cacheProgram)
		}
		if !bytes.Equal(body1, body2) {
			t.Errorf("canonical first %v: bodies differ:\n%s\n%s", order[0] == src, body1, body2)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name   string
		req    PlaceRequest
		status int
		substr string
	}{
		{"malformed ir", PlaceRequest{IR: "func main( {"}, 400, "error"},
		{"empty ir", PlaceRequest{}, 400, "empty ir"},
		{"unknown strategy", PlaceRequest{IR: testProgram(5), Strategy: "nonsense", Args: []int64{5}}, 400, "unknown strategy"},
		{"unknown machine", PlaceRequest{IR: testProgram(5), Machine: "vax", Args: []int64{5}}, 400, "error"},
	}
	for _, tc := range cases {
		resp, body := post(t, ts, tc.req)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
		if !strings.Contains(string(body), tc.substr) {
			t.Errorf("%s: body %q missing %q", tc.name, body, tc.substr)
		}
	}

	// Not JSON at all.
	resp, err := ts.Client().Post(ts.URL+"/v1/place", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-JSON body: status %d, want 400", resp.StatusCode)
	}

	// Oversized body → 413 (dedicated server with a tight limit).
	_, tsSmall := newTestServer(t, Config{MaxBodyBytes: 256})
	big := PlaceRequest{IR: strings.Repeat("# padding\n", 64) + testProgram(5)}
	resp2, body2 := post(t, tsSmall, big)
	if resp2.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413 (%s)", resp2.StatusCode, body2)
	}

	// A runaway program hits the step budget, not the CPU.
	_, ts2 := newTestServer(t, Config{MaxVMSteps: 100})
	resp3, body3 := post(t, ts2, PlaceRequest{IR: testProgram(5), Args: []int64{5}})
	if resp3.StatusCode != http.StatusBadRequest || !strings.Contains(string(body3), "step") {
		t.Errorf("step-limited program: status %d body %s, want 400 with step-limit error", resp3.StatusCode, body3)
	}
}

// TestBestStrategy: strategy=best prices all strategies, applies the
// cheapest, and reports every total.
func TestBestStrategy(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, PlaceRequest{IR: testProgram(6), Strategy: "best", Args: []int64{5}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r PlaceResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.StrategyCosts) != len(spillopt.Strategies()) {
		t.Fatalf("strategy_costs has %d entries, want %d", len(r.StrategyCosts), len(spillopt.Strategies()))
	}
	bestCost := r.StrategyCosts[r.Strategy]
	for name, c := range r.StrategyCosts {
		if c < bestCost {
			t.Errorf("chosen %s (%d) beaten by %s (%d)", r.Strategy, bestCost, name, c)
		}
	}
	sn := s.snapshot()
	if len(sn.StrategyWins) == 0 {
		t.Error("strategy=best recorded no per-function wins")
	}
}

// TestRunAndEmit: run/emit extras come back and bypass the
// function-level cache without disturbing determinism.
func TestRunAndEmit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, PlaceRequest{IR: testProgram(7), Args: []int64{5}, Run: true, Emit: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var r PlaceResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Run == nil || r.Run.Instrs == 0 {
		t.Error("run=true returned no measured result")
	}
	if r.Run != nil && r.Run.Overhead != r.TotalOverhead {
		// hierarchical-jump placements may use jump blocks whose
		// modeled and measured counts agree; assert agreement since
		// both derive from the same profile.
		t.Errorf("measured overhead %d != modeled %d", r.Run.Overhead, r.TotalOverhead)
	}
	if !strings.Contains(r.Text, "func") {
		t.Error("emit=true returned no program text")
	}
}

// TestTierPlacement: the tier option runs the tiered pipeline — the
// response carries a measured run and per-function reports of the
// final placement, a hostile program's tiny quantum forces a boundary
// (visible in the tier metrics), the tiered run's value matches the
// untiered one, and a resubmission is served from the program cache
// without re-running while still counting as a tier request.
func TestTierPlacement(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := irtext.Print(irgen.Generate(3, irgen.Hostile()))
	args := []int64{5}

	rf, bodyRef := post(t, ts, PlaceRequest{IR: src, Args: args, Run: true})
	if rf.StatusCode != http.StatusOK {
		t.Fatalf("untiered status %d: %s", rf.StatusCode, bodyRef)
	}
	var ref PlaceResponse
	if err := json.Unmarshal(bodyRef, &ref); err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, ts, PlaceRequest{IR: src, Args: args, Tier: true, Quantum: 500})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tier status %d: %s", resp.StatusCode, body)
	}
	var r PlaceResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if r.Run == nil || r.Run.Instrs == 0 {
		t.Fatal("tier=true returned no measured result")
	}
	if ref.Run == nil || r.Run.Value != ref.Run.Value {
		t.Errorf("tiered value %d, untiered %d", r.Run.Value, ref.Run.Value)
	}
	if len(r.Functions) == 0 {
		t.Error("tiered response carries no function reports")
	}
	sn := s.snapshot()
	if sn.Tier.Requests != 1 || sn.Tier.Runs != 1 {
		t.Errorf("tier counters %+v, want 1 request / 1 run", sn.Tier)
	}
	if sn.Tier.Boundaries != 1 || sn.Tier.Replaced == 0 {
		t.Errorf("quantum 500 on a hostile program must hit a boundary and re-place: %+v", sn.Tier)
	}

	resp2, body2 := post(t, ts, PlaceRequest{IR: src, Args: args, Tier: true, Quantum: 500})
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "program" {
		t.Fatalf("resubmission not a program-cache hit: %d %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached tiered response differs from the fresh one")
	}
	sn = s.snapshot()
	if sn.Tier.Requests != 2 || sn.Tier.Runs != 1 {
		t.Errorf("cached tier request must count as a request, not a run: %+v", sn.Tier)
	}

	// Quantum without tier is a client error.
	resp3, _ := post(t, ts, PlaceRequest{IR: src, Args: args, Quantum: 500})
	if resp3.StatusCode != http.StatusBadRequest {
		t.Errorf("quantum without tier: status %d, want 400", resp3.StatusCode)
	}
}

// TestConcurrentSubmissions hammers one server from many goroutines
// (run under -race): mixed distinct and duplicate programs, every
// response 200, and every duplicate byte-identical.
func TestConcurrentSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const clients, iters = 8, 6
	bodies := make([][][]byte, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			bodies[c] = make([][]byte, iters)
			for i := 0; i < iters; i++ {
				seed := uint64(10 + (c+i)%4) // overlapping seeds across clients
				req, _ := json.Marshal(PlaceRequest{IR: testProgram(seed), Args: []int64{5}})
				resp, err := ts.Client().Post(ts.URL+"/v1/place", "application/json", bytes.NewReader(req))
				if err != nil {
					t.Error(err)
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: status %d: %s", c, resp.StatusCode, b)
					return
				}
				bodies[c][i] = b
			}
		}(c)
	}
	wg.Wait()
	// Same seed → same bytes, across all clients.
	bySeed := map[uint64][]byte{}
	for c := 0; c < clients; c++ {
		for i := 0; i < iters; i++ {
			seed := uint64(10 + (c+i)%4)
			if bodies[c][i] == nil {
				continue
			}
			if prev, ok := bySeed[seed]; ok && !bytes.Equal(prev, bodies[c][i]) {
				t.Errorf("seed %d: divergent responses under concurrency", seed)
			}
			bySeed[seed] = bodies[c][i]
		}
	}
}

// TestPlacedFunctionsCountsAnswers: placed_functions counts the
// functions of the requests the full pipeline answered 200. A program
// that parses and profiles but fails allocation adds none, and neither
// does a cached resubmission.
func TestPlacedFunctionsCountsAnswers(t *testing.T) {
	const fiveParams = `main main

func f(v0, v1, v2, v3, v4) {
entry:
	ret v4
}

func main(v0) {
entry:
	v1 = call f(v0, v0, v0, v0, v0)
	ret v1
}
`
	s, ts := newTestServer(t, Config{})
	resp, body := post(t, ts, PlaceRequest{IR: fiveParams, Args: []int64{1}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "params") {
		t.Fatalf("five-parameter callee: status %d: %s; want 400 from the allocator", resp.StatusCode, body)
	}
	if n := s.snapshot().PlacedFunctions; n != 0 {
		t.Errorf("placed_functions %d after a request that failed allocation, want 0", n)
	}
	src := testProgram(3)
	want := int64(len(irgen.Generate(3, irgen.Small()).Order))
	for range 2 {
		if resp, body := post(t, ts, PlaceRequest{IR: src, Args: []int64{5}}); resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if n := s.snapshot().PlacedFunctions; n != want {
			t.Errorf("placed_functions %d, want the placed program's %d functions", n, want)
		}
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d: %s", resp.StatusCode, hb)
	}
	var health struct {
		OK       bool     `json:"ok"`
		Findings []string `json:"findings"`
	}
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || len(health.Findings) != 0 {
		t.Fatalf("healthz findings: %v", health.Findings)
	}

	sn, err := metricsSnapshot(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	// The self-check went through the real caches: one program-cache
	// hit (the identical resubmission) and two misses minimum.
	if sn.ProgramCache.Hits == 0 || sn.ProgramCache.Misses == 0 {
		t.Errorf("healthz did not exercise the program cache: %+v", sn.ProgramCache)
	}
	// healthz runs place() directly, not through HTTP, so request
	// counters only reflect real requests.
	if sn.Requests.Total != 0 {
		t.Errorf("healthz polluted request counters: %+v", sn.Requests)
	}
}

// slowProgram's profile run, with slowArgs, executes about 15 million
// instructions: long enough that a request for it outlives a 1 ms
// deadline, or a client that half-closes its connection, by far.
const slowProgram = `main main

func main(v0) {
entry:
	v1 = const 0
	v2 = const 0
	jmp loop ; 0
loop:
	v1 = add v1, v2
	v3 = const 1
	v2 = add v2, v3
	v4 = cmplt v2, v0
	br v4, loop, exit ; 0 0
exit:
	ret v1
}
`

var slowArgs = []int64{3_000_000}

// TestMetricsCountAnswers: /metrics counts each request by the status
// its client got. In both cases below the timeout handler answers 503
// while the handler runs on to a 200 it cannot deliver: a request whose
// profile run outlasts a 1 ms deadline, and a request whose client
// half-closes its connection once the body is sent. Once the handlers
// have finished, the counters match the clients' statuses one for one,
// and the unanswered work is in neither latency histogram.
func TestMetricsCountAnswers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		timeout time.Duration
		send    func(ts *httptest.Server) int
	}{
		{"deadline", time.Millisecond, func(ts *httptest.Server) int {
			resp, _ := post(t, ts, PlaceRequest{IR: slowProgram, Args: slowArgs})
			return resp.StatusCode
		}},
		{"half-closed", 0, func(ts *httptest.Server) int {
			body := string(marshalRequest(t, PlaceRequest{IR: slowProgram, Args: slowArgs}))
			return postRaw(t, ts.Listener.Addr().String(), fmt.Sprintf("Content-Length: %d\r\n", len(body)), body)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{RequestTimeout: tc.timeout})
			status := tc.send(ts)
			if status != http.StatusServiceUnavailable {
				t.Fatalf("client got %d, want the timeout handler's 503", status)
			}
			// The handler finishes its placement after the answer; wait
			// until it has stored its response and nothing is in flight.
			var sn *Snapshot
			for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
				var err error
				if sn, err = metricsSnapshot(ts.Client(), ts.URL); err != nil {
					t.Fatal(err)
				}
				if s.progCache.Len() > 0 && sn.Requests.InFlight == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("the handler did not finish: %+v", sn.Requests)
				}
			}
			r := sn.Requests
			counted := map[int]int64{200: r.OK, 400: r.BadRequest, 413: r.TooLarge, 500: r.Errors, 503: r.TimedOut}
			for code, n := range counted {
				got := int64(0)
				if code == status {
					got = 1
				}
				if n != got {
					t.Errorf("/metrics counts %d requests answered %d, clients got %d", n, code, got)
				}
			}
			if r.Total != 1 {
				t.Errorf("/metrics counts %d requests, clients sent 1", r.Total)
			}
			if n := sn.Latency.Cold.Count + sn.Latency.Cached.Count; n != r.OK {
				t.Errorf("latency histograms hold %d requests, %d were answered 200", n, r.OK)
			}
		})
	}
}

// TestLoadgenSmoke drives the real loadgen against an in-process
// server at a small scale and checks the deterministic counter
// expectations the CI gate relies on.
func TestLoadgenSmoke(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	opt := LoadgenOptions{Distinct: 6, Dups: 3, Reorder: true, Workers: 4, Seed: 40}
	res, err := Loadgen(ts.Client(), ts.URL, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 6*(1+3)+6 {
		t.Errorf("requests = %d, want 30", res.Requests)
	}
	if res.ProgramHits != int64(6*3) {
		t.Errorf("program hits = %d, want %d (every cached-phase request)", res.ProgramHits, 6*3)
	}
	if res.FunctionHits != int64(res.Functions) {
		t.Errorf("function hits = %d, want %d (every reordered function)", res.FunctionHits, res.Functions)
	}
	if res.CachedSpeedup <= 1 {
		t.Errorf("cached speedup = %.2f, want > 1", res.CachedSpeedup)
	}
}

// TestLoadgenChecksBody: a 200 whose body ends before its declared
// Content-Length fails the sweep instead of counting as an answer.
func TestLoadgenChecksBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			w.Write([]byte("{}"))
			return
		}
		w.Header().Set("Content-Length", "100")
		w.Write([]byte(`{"ok":1}`))
	}))
	defer ts.Close()
	_, err := Loadgen(ts.Client(), ts.URL, LoadgenOptions{Distinct: 2, Dups: 1, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "reading body") {
		t.Errorf("Loadgen against a server that cuts its bodies short: err = %v, want a body read error", err)
	}
}

// TestGracefulShutdownNoLeak: after serving concurrent traffic and a
// graceful Shutdown, no server goroutines remain.
func TestGracefulShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	s := New(Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: s.Handler()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	url := fmt.Sprintf("http://%s/v1/place", ln.Addr())
	// Without keep-alives no connection outlives its request. A pooled
	// client dials one connection per concurrent request, and one it
	// dialed but never used would sit in StateNew, which Shutdown waits
	// out for 5 s: the faster the requests, the likelier that is.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body, _ := json.Marshal(PlaceRequest{IR: testProgram(uint64(50 + c)), Args: []int64{5}})
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
		}(c)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if err := <-done; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want ErrServerClosed", err)
	}

	// Goroutines take a moment to unwind; poll with a deadline.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after shutdown", before, runtime.NumGoroutine())
}

// TestPlaceEngines: run mode accepts every engine name, all engines
// report identical run results (they are parity-tested), unknown names
// get 400, and /metrics counts run-mode requests per engine.
func TestPlaceEngines(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := testProgram(7)

	var first []byte
	for _, engine := range spillopt.Engines() {
		resp, body := post(t, ts, PlaceRequest{IR: src, Args: []int64{5}, Run: true, Engine: engine})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("engine %q: status %d: %s", engine, resp.StatusCode, body)
		}
		var pr PlaceResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatalf("engine %q: %v", engine, err)
		}
		if pr.Run == nil {
			t.Fatalf("engine %q: no run result", engine)
		}
		// Strip nothing: the whole response must match across engines,
		// run result included.
		if first == nil {
			first = body
		} else if !bytes.Equal(body, first) {
			t.Fatalf("engine %q response differs from first engine's:\n%s\nvs\n%s", engine, body, first)
		}
	}

	// The default is the regcode engine: an engineless request hits
	// the same cache entry as an explicit engine=regcode one.
	resp, _ := post(t, ts, PlaceRequest{IR: src, Args: []int64{5}, Run: true})
	if got := resp.Header.Get("X-Cache"); got != "program" {
		t.Errorf("engineless resubmission: X-Cache = %q, want program", got)
	}

	resp, body := post(t, ts, PlaceRequest{IR: src, Run: true, Engine: "jit"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown engine: status %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "unknown engine") {
		t.Fatalf("unknown engine: body %s", body)
	}

	sn := s.snapshot()
	want := map[string]int64{"regcode": 2, "tree": 1}
	for engine, n := range want {
		if sn.EngineRuns[engine] != n {
			t.Errorf("engine_runs[%s] = %d, want %d (all: %v)", engine, sn.EngineRuns[engine], n, sn.EngineRuns)
		}
	}
	if len(sn.EngineRuns) != len(want) {
		t.Errorf("engine_runs = %v, want exactly the keys of %v", sn.EngineRuns, want)
	}
}

// TestPlaceEngineAlias: "bytecode", the retired engine's name, is a
// deprecated alias of regcode. It is normalized before cache keying
// and counting, so a regcode request after a bytecode one is a program
// cache hit and engine_runs counts both under regcode.
func TestPlaceEngineAlias(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := testProgram(7)

	resp, body := post(t, ts, PlaceRequest{IR: src, Args: []int64{5}, Run: true, Engine: "bytecode"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("engine bytecode: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != cacheMiss {
		t.Errorf("first request: X-Cache = %q, want %q", got, cacheMiss)
	}
	resp, body2 := post(t, ts, PlaceRequest{IR: src, Args: []int64{5}, Run: true, Engine: "regcode"})
	if got := resp.Header.Get("X-Cache"); got != cacheProgram {
		t.Errorf("regcode after bytecode: X-Cache = %q, want %q", got, cacheProgram)
	}
	if !bytes.Equal(body, body2) {
		t.Errorf("alias and regcode responses differ:\n%s\nvs\n%s", body, body2)
	}
	sn := s.snapshot()
	if sn.EngineRuns["regcode"] != 2 || len(sn.EngineRuns) != 1 {
		t.Errorf("engine_runs = %v, want {regcode: 2}", sn.EngineRuns)
	}
}

// TestAllocOption: the alloc option selects machine-priced allocation,
// is validated before any cache work, and is part of the cache key —
// uniform and machine responses for one program never alias, while the
// default and an explicit "uniform" share one entry.
func TestAllocOption(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := testProgram(7)

	resp, body := post(t, ts, PlaceRequest{IR: src, Alloc: "bogus", Args: []int64{5}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "unknown alloc mode") {
		t.Fatalf("unknown alloc mode: status %d body %s", resp.StatusCode, body)
	}

	resp1, body1 := post(t, ts, PlaceRequest{IR: src, Args: []int64{5}})
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("default alloc: status %d: %s", resp1.StatusCode, body1)
	}
	// An explicit "uniform" is the default spelled out: same cache
	// entry, same bytes.
	resp2, body2 := post(t, ts, PlaceRequest{IR: src, Alloc: "uniform", Args: []int64{5}})
	if c := resp2.Header.Get("X-Cache"); c != cacheProgram {
		t.Errorf("explicit uniform X-Cache = %q, want %q", c, cacheProgram)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("explicit uniform response differs from default")
	}

	// Machine mode is a distinct key: a fresh pipeline run, then a hit
	// on resubmission, and still the same computed placement totals for
	// this spill-free program family or not — the response just has to
	// be deterministic.
	resp3, body3 := post(t, ts, PlaceRequest{IR: src, Alloc: "machine", Args: []int64{5}})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("machine alloc: status %d: %s", resp3.StatusCode, body3)
	}
	if c := resp3.Header.Get("X-Cache"); c != cacheMiss {
		t.Errorf("first machine-alloc submission X-Cache = %q, want %q", c, cacheMiss)
	}
	resp4, body4 := post(t, ts, PlaceRequest{IR: src, Alloc: "machine", Args: []int64{5}})
	if c := resp4.Header.Get("X-Cache"); c != cacheProgram {
		t.Errorf("machine-alloc resubmission X-Cache = %q, want %q", c, cacheProgram)
	}
	if !bytes.Equal(body3, body4) {
		t.Errorf("machine-alloc resubmission differs")
	}

	// Run mode: machine-priced allocation may move spill code but must
	// never change the computed value.
	var uni, mach PlaceResponse
	ru, bu := post(t, ts, PlaceRequest{IR: src, Args: []int64{5}, Run: true})
	rm, bm := post(t, ts, PlaceRequest{IR: src, Alloc: "machine", Args: []int64{5}, Run: true})
	if ru.StatusCode != http.StatusOK || rm.StatusCode != http.StatusOK {
		t.Fatalf("run statuses %d/%d: %s %s", ru.StatusCode, rm.StatusCode, bu, bm)
	}
	if err := json.Unmarshal(bu, &uni); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bm, &mach); err != nil {
		t.Fatal(err)
	}
	if uni.Run == nil || mach.Run == nil || uni.Run.Value != mach.Run.Value {
		t.Errorf("machine alloc changed the computed value: %+v vs %+v", uni.Run, mach.Run)
	}
}

// TestCachedEntriesDoNotPinRequest: a function-cache entry outlives
// its request, so neither the function name it carries nor the
// machine, strategy and alloc strings of its key may point into the
// request's IR text or body. A parsed name is a substring of that
// text, and caching it would keep the whole body alive while entrySize
// charges only the name against the byte budget.
func TestCachedEntriesDoNotPinRequest(t *testing.T) {
	s := New(Config{})
	body, err := json.Marshal(PlaceRequest{IR: testProgram(5), Machine: "classic", Strategy: "hierarchical-jump", Alloc: "uniform", Args: []int64{5}})
	if err != nil {
		t.Fatal(err)
	}
	var req PlaceRequest
	if err := decodeRequest(body, &req); err != nil {
		t.Fatal(err)
	}
	o := s.place(&req)
	if o.status != http.StatusOK {
		t.Fatalf("status %d: %s", o.status, o.body)
	}
	var resp PlaceResponse
	if err := json.Unmarshal(o.body, &resp); err != nil {
		t.Fatal(err)
	}
	within := func(str string, data *byte, n int) bool {
		lo, p := uintptr(unsafe.Pointer(data)), uintptr(unsafe.Pointer(unsafe.StringData(str)))
		return p >= lo && p < lo+uintptr(n)
	}
	for _, str := range []string{req.IR, req.Machine, req.Strategy, req.Alloc} {
		if within(str, unsafe.SliceData(body), len(body)) {
			t.Errorf("decoded %.20q points into the body", str)
		}
	}
	for _, fe := range resp.Functions {
		e, ok := s.funcCache.Get(funcKey{fe.Hash, req.Machine, req.Strategy, req.Alloc})
		if !ok {
			t.Fatalf("%s: no function-cache entry", fe.Function)
		}
		if within(e.Function, unsafe.StringData(req.IR), len(req.IR)) {
			t.Errorf("cached entry for %s points into the request text", e.Function)
		}
	}
}

// TestWorkerPanicAnswers500: a panic in a per-function worker comes
// back from par.Do as a *par.PanicError, on the serial path and the
// pooled one, and the reply is 500 even from a stage whose errors are
// otherwise the input's fault (400). /metrics counts the request as a
// panic; a plain error is not one.
func TestWorkerPanicAnswers500(t *testing.T) {
	var panicked placeOutcome
	for _, parallelism := range []int{1, 4} {
		err := par.Do(8, parallelism, func(i int) error {
			if i == 5 {
				panic("boom")
			}
			return nil
		})
		panicked = fail(http.StatusBadRequest, fmt.Errorf("allocate: %w", err))
		if panicked.status != http.StatusInternalServerError || !strings.Contains(string(panicked.body), "item 5 panicked: boom") {
			t.Errorf("parallelism %d: status %d body %s, want 500 naming the panic", parallelism, panicked.status, panicked.body)
		}
	}
	plain := fail(http.StatusBadRequest, errors.New("bad input"))
	if plain.status != http.StatusBadRequest {
		t.Errorf("plain error: status %d, want 400", plain.status)
	}
	s := New(Config{})
	for _, o := range []placeOutcome{panicked, plain} {
		s.metrics.begin()
		s.metrics.done(o, time.Millisecond)
	}
	if r := s.snapshot().Requests; r.Panics != 1 || r.Errors != 1 || r.BadRequest != 1 {
		t.Errorf("requests = %+v, want 1 panic among 1 error, and 1 bad request", r)
	}
}
