package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/par"
	"repro/internal/server"
)

// workers is how many requests the untimed phases (corpus, warm-up,
// spill cost) run at a time.
const workers = 2

// service is one in-process server behind a loopback listener.
type service struct {
	srv  *server.Server
	http *httptest.Server
	hc   *http.Client
}

// startService builds a server, listens, and waits for the first
// /healthz 200, which runs the server's self-check.
func startService() (*service, error) {
	s := server.New(server.Config{})
	ts := httptest.NewServer(s.Handler())
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers, DisableCompression: true}}
	svc := &service{srv: s, http: ts, hc: hc}
	resp, err := hc.Get(ts.URL + "/healthz")
	if err != nil {
		svc.close()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		svc.close()
		return nil, fmt.Errorf("healthz: status %d: %s", resp.StatusCode, body)
	}
	return svc, nil
}

func (s *service) close() {
	s.hc.CloseIdleConnections()
	s.http.Close()
}

// post sends one /v1/place request and reads the whole reply.
func (s *service) post(body []byte) (status int, cache string, out []byte, err error) {
	resp, err := s.hc.Post(s.http.URL+"/v1/place", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), out, err
}

func (s *service) snapshot() (*server.Snapshot, error) {
	resp, err := s.hc.Get(s.http.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var sn server.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return &sn, nil
}

// failure is one failed request, for the report.
type failure struct {
	seed   uint64
	status int
	msg    string
}

// checker counts attempts and failures and holds each expected
// response for the byte-identity check. A failure is a rejection (a
// status other than 200) or a wrong reply (a transport error, a 200
// whose content fails a check, or a replica reply that differs from
// the server's). Both count in failed; only wrong replies make a run
// incorrect.
type checker struct {
	workload  string
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int
	first     []failure
	expect    map[int][]byte
}

func newChecker(workload string) *checker {
	return &checker{workload: workload, expect: make(map[int][]byte)}
}

func (c *checker) fail(seed uint64, status int, wrong bool, msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	if wrong {
		c.wrong++
	}
	if len(c.first) < 5 {
		c.first = append(c.first, failure{seed, status, msg})
	}
}

func (c *checker) attempt(n int) {
	c.mu.Lock()
	c.attempted += n
	c.mu.Unlock()
}

// check applies every correctness check to one reply and reports
// whether it passed: status 200, the program's function list, the run
// value against the reference, and byte identity with the first reply
// for the same program.
func (c *checker) check(rq request, status int, err error, body []byte) bool {
	seed := rq.prog.seed
	switch {
	case err != nil:
		c.fail(seed, status, true, err.Error())
		return false
	case status != http.StatusOK:
		c.fail(seed, status, false, string(body))
		return false
	}
	if got := functionNames(body); !slices.Equal(got, rq.prog.funcs) {
		c.fail(seed, status, true, fmt.Sprintf("functions %v, program has %v", got, rq.prog.funcs))
		return false
	}
	if rq.prog.hasWant {
		if v, ok := runValue(body); !ok || v != rq.prog.want {
			c.fail(seed, status, true, fmt.Sprintf("run value %d (found %v), tree engine says %d", v, ok, rq.prog.want))
			return false
		}
	}
	if rq.key >= 0 {
		c.mu.Lock()
		want, seen := c.expect[rq.key]
		if !seen {
			c.expect[rq.key] = body
		}
		c.mu.Unlock()
		if seen && !bytes.Equal(want, body) {
			c.fail(seed, status, true, "resubmission differs from the first reply")
			return false
		}
	}
	return true
}

// functionNames lists the "function" fields of a /v1/place reply in
// order, without decoding the rest of it.
func functionNames(body []byte) []string {
	const field = `"function":"`
	var out []string
	for {
		i := bytes.Index(body, []byte(field))
		if i < 0 {
			return out
		}
		body = body[i+len(field):]
		j := bytes.IndexByte(body, '"')
		if j < 0 {
			return out
		}
		out = append(out, string(body[:j]))
		body = body[j:]
	}
}

// runValue extracts run.value from a /v1/place reply.
func runValue(body []byte) (int64, bool) {
	const field = `"run":{"value":`
	i := bytes.Index(body, []byte(field))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(field):]
	j := bytes.IndexAny(rest, ",}")
	if j < 0 {
		return 0, false
	}
	v, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	return v, err == nil
}

// windows is how many equal slices the timed phase is cut into. The
// timing metrics are medians over the slices, so interference from
// other tenants of the host that lasts less than half the run does not
// move them.
const windows = 10

// window is one slice of the timed phase: the requests sent in it, its
// length and the process CPU time it used.
type window struct {
	lat  []time.Duration
	wall time.Duration
	cpu  time.Duration
}

// loadResult is what the timed closed loop measured.
type loadResult struct {
	lat       []time.Duration
	windows   []window
	probes    []time.Duration // host-speed probe times
	cpu       time.Duration
	alloc     uint64
	gcCPU     float64
	cacheHits map[string]int
	sent      int // schedule entries sent
	before    *server.Snapshot
	after     *server.Snapshot
	captured  map[int]reply
}

// reply is a server reply kept for the replica comparison. A
// rejection is kept too: the replica must reject the same way.
type reply struct {
	status int
	body   []byte
}

// runLoad drives the timed phase: one closed-loop client sends the
// schedule for the given time, cut into windows, and times the
// host-speed probe between two requests every probeEvery. The client
// waits for each reply before sending again, the way a build system
// calling a compile service does. It is one client because on the
// shared two-core host the bounds were set on, one left the other core
// to the garbage collector and spread runs of one workload a third as
// wide as two did. Replies to the verbatim form of the first capture
// timed programs are kept for the traced run's replica comparison.
func runLoad(svc *service, c *corpus, chk *checker, seconds float64, capture int) (*loadResult, error) {
	res := &loadResult{windows: make([]window, windows), cacheHits: make(map[string]int), captured: make(map[int]reply)}
	var err error
	if res.before, err = svc.snapshot(); err != nil {
		return nil, err
	}
	span := time.Duration(seconds * float64(time.Second) / windows)
	pr := newProbe()
	gc0 := gcSeconds()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for w := range res.windows {
		win := &res.windows[w]
		var probed time.Duration // time this window spent in probes
		cpu0 := rusage()
		start := time.Now()
		nextProbe := start
		for time.Since(start)-probed < span {
			if t := time.Now(); !t.Before(nextProbe) {
				res.probes = append(res.probes, pr.run())
				probed += time.Since(t)
				nextProbe = t.Add(probeEvery)
			}
			rq := c.at(res.sent)
			res.sent++
			t0 := time.Now()
			status, cache, body, err := svc.post(rq.body)
			win.lat = append(win.lat, time.Since(t0))
			res.cacheHits[cache]++
			chk.check(rq, status, err, body)
			if _, ok := res.captured[rq.idx]; err == nil && rq.verbatim && rq.idx < capture && !ok {
				res.captured[rq.idx] = reply{status, body}
			}
		}
		// The probe keeps one CPU busy while it runs; neither its time
		// nor that CPU time is the service's.
		win.wall = time.Since(start) - probed
		win.cpu = rusage() - cpu0 - probed
		res.cpu += win.cpu
		res.lat = append(res.lat, win.lat...)
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	res.alloc = m1.TotalAlloc - m0.TotalAlloc
	res.gcCPU = gcSeconds() - gc0
	chk.attempt(len(res.lat))
	if res.after, err = svc.snapshot(); err != nil {
		return nil, err
	}
	return res, nil
}

// sendAll sends requests at(0) to at(n-1) once each, not timed, two at
// a time.
func sendAll(svc *service, n int, at func(i int) request, chk *checker) {
	// Failures are the checker's to count; the calls never fail.
	_ = par.Do(n, workers, func(i int) error {
		rq := at(i)
		status, _, body, err := svc.post(rq.body)
		chk.check(rq, status, err, body)
		return nil
	})
	chk.attempt(n)
}

// rusage is the process's user plus system CPU time so far.
func rusage() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcSeconds is the runtime's estimate of CPU time spent on GC so far.
func gcSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// liveHeap is the live heap in bytes after two full collections: the
// second frees what sync.Pool victim caches kept through the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// spillCostRatio is the paper's Table 1 quantity over the first n
// untiered timed programs: the served placement's total_cost over the
// entry/exit baseline's, for the same request otherwise. A program the
// service rejects on either side is left out of both sums. The timed
// phase sent the first programs, so the served side is mostly a
// program-cache hit; its bytes are the same either way.
func spillCostRatio(svc *service, c *corpus, chk *checker, n int) (float64, int, error) {
	var progs []*program
	for _, p := range c.timed {
		if len(progs) == n {
			break
		}
		if !c.w.options(p.seed).Tier {
			progs = append(progs, p)
		}
	}
	costs := make([][2]int64, len(progs))
	ok := make([]bool, len(progs))
	err := par.Do(len(progs), workers, func(i int) error {
		p := progs[i]
		var req server.PlaceRequest
		if err := json.Unmarshal(p.body, &req); err != nil {
			return err
		}
		req.Strategy = "entry-exit"
		ee, err := json.Marshal(req)
		if err != nil {
			return err
		}
		for k, body := range [][]byte{p.body, ee} {
			status, _, out, err := svc.post(body)
			chk.attempt(1)
			if !chk.check(request{prog: p, key: -1}, status, err, out) {
				return nil
			}
			var resp struct {
				TotalCost int64 `json:"total_cost"`
			}
			if err := json.Unmarshal(out, &resp); err != nil {
				return err
			}
			costs[i][k] = resp.TotalCost
		}
		ok[i] = true
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	var placed, baseline int64
	used := 0
	for i, pair := range costs {
		if ok[i] {
			placed, baseline, used = placed+pair[0], baseline+pair[1], used+1
		}
	}
	if baseline == 0 {
		return 0, used, fmt.Errorf("entry/exit baseline cost is 0 over %d programs", used)
	}
	return float64(placed) / float64(baseline), used, nil
}
