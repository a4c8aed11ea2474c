package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/server"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; parent is the index of the enclosing span, -1 for a
// request's root.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory on one goroutine. A tracer that is
// off records nothing and reads no clock, which is what the untraced
// replay measures the tracing overhead against.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	cur   int32
	req   int32
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now(), cur: -1} }

func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: t.cur, Req: t.req, Start: int64(time.Since(t.epoch))})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.epoch))
	t.cur = s.Parent
}

// selfTimes sums each span name's self time: its duration minus the
// time its child spans cover (children run on the same goroutine, so
// they never overlap). The root spans' self time is what no layer
// span covers.
func (t *tracer) selfTimes() (self map[string]time.Duration, total time.Duration) {
	self = make(map[string]time.Duration)
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[i])
		if s.Parent < 0 {
			total += time.Duration(s.End - s.Start)
		}
	}
	return self, total
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanNames are the layer spans the replica records, in pipeline
// order. Every one is reported as a share of traced time.
var spanNames = []string{
	"irtext.parse", "server.keys", "profile.collect", "regalloc.allocate",
	"analysis.liveness", "analysis.pst", "analysis.seed",
	"strategy.compute", "core.validate", "core.apply", "analysis.patch",
	"vm.compile", "vm.exec", "tier.run", "spillopt.report", "server.marshal",
}

// selfMsSpans are the spans every workload runs; their self time per
// request is reported too. The others run on some workloads only and
// would report a constant zero elsewhere.
var selfMsSpans = []string{
	"irtext.parse", "server.keys", "profile.collect", "regalloc.allocate",
	"analysis.liveness", "analysis.pst", "analysis.seed",
	"strategy.compute", "core.validate", "core.apply", "analysis.patch",
	"spillopt.report", "server.marshal",
}

// replayResult is the traced run's outcome.
type replayResult struct {
	tracer   *tracer
	counts   counts
	traced   time.Duration
	untraced time.Duration
}

// replay runs each sampled request through the replica twice on this
// goroutine, once with spans on and once with them off, alternating
// which goes first so drift between the passes cancels, and compares
// each traced reply, status and bytes, with the server's.
func replay(reqs []server.PlaceRequest, want []reply, chk *checker, progs []*program) *replayResult {
	res := &replayResult{tracer: newTracer(true)}
	off := newTracer(false)
	var ignored counts
	untraced := func(req server.PlaceRequest) {
		start := time.Now()
		replicate(req, off, &ignored)
		res.untraced += time.Since(start)
	}
	for i, req := range reqs {
		if i%2 == 1 {
			untraced(req)
		}
		res.tracer.req = int32(i)
		start := time.Now()
		status, body := replicate(req, res.tracer, &res.counts)
		res.traced += time.Since(start)
		if i%2 == 0 {
			untraced(req)
		}
		if status != want[i].status || !bytes.Equal(body, want[i].body) {
			chk.fail(progs[i].seed, status, true, fmt.Sprintf("replica reply %d differs from the server's %d: %.200s", status, want[i].status, body))
		}
	}
	chk.attempt(len(reqs))
	return res
}

// sampleRequests decodes the first timed programs' requests, up to n,
// and pairs each with the server's reply: the one the timed phase
// kept, or a fresh submission when the timed phase never sent it. A
// program whose fresh submission got no reply is left out.
func sampleRequests(svc *service, c *corpus, load *loadResult, chk *checker, n int) ([]server.PlaceRequest, []reply, []*program, error) {
	var (
		reqs  []server.PlaceRequest
		want  []reply
		progs []*program
	)
	for i, p := range c.timed[:min(n, len(c.timed))] {
		r, ok := load.captured[i]
		if !ok {
			status, _, out, err := svc.post(p.body)
			chk.attempt(1)
			chk.check(request{prog: p, key: -1}, status, err, out)
			if err != nil {
				continue
			}
			r = reply{status, out}
		}
		var req server.PlaceRequest
		if err := json.Unmarshal(p.body, &req); err != nil {
			return nil, nil, nil, err
		}
		reqs, want, progs = append(reqs, req), append(want, r), append(progs, p)
	}
	return reqs, want, progs, nil
}
