package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/par"
	"repro/internal/server"
	"repro/internal/vm"
)

// workload is one traffic mix against /v1/place. Its programs are
// irgen programs whose generator seeds come from the pool [1, pool]
// minus the seeds the service rejects (rejectedSeeds), drawn in a
// random order fixed by the run's seed.
type workload struct {
	name string
	gen  irgen.Config
	pool uint64
	// distinct is how many pool programs one run draws. cold-compile
	// and exec-run send them in draw order, starting over if a run
	// outlasts them; each is sized to last a run at twice the speed the
	// benchmark was written against. hot-resubmit's working set is this
	// size.
	distinct int
	// options returns the request options (all but IR) for a pool
	// seed. They depend on the seed alone, so a program is the same
	// request whatever run draws it.
	options func(seed uint64) server.PlaceRequest
	// resubmit selects the hot-resubmit schedule: programs drawn
	// uniformly with resubmissions and variants, instead of each
	// program once in draw order.
	resubmit bool
	// runSample is the number of run requests whose value is checked
	// against a tree-engine run of the unallocated program.
	runSample int
}

// workloads are the three traffic mixes, in the order the README
// explains them. The why of each is recorded in BENCHMARK.json.
var workloads = []*workload{
	{
		// Every request misses both content caches, so time goes to
		// parse, profile, allocate, analysis and place.
		name:     "cold-compile",
		gen:      irgen.Default(),
		pool:     40000,
		distinct: 8000,
		options: func(uint64) server.PlaceRequest {
			return server.PlaceRequest{Strategy: "hierarchical-jump", Args: []int64{5}}
		},
	},
	{
		// The working set fits the caches, so caches, HTTP and JSON
		// carry the load; a compile-pipeline change must not show.
		name:     "hot-resubmit",
		gen:      irgen.Small(),
		pool:     20000,
		distinct: 2000,
		options: func(uint64) server.PlaceRequest {
			return server.PlaceRequest{Strategy: "hierarchical-jump", Args: []int64{5}}
		},
		resubmit: true,
	},
	{
		// The only workload that executes what it places: VM runs and
		// the tiered pipeline, which every second program takes, are
		// about half the traced time.
		name:     "exec-run",
		gen:      irgen.Hostile(),
		pool:     30000,
		distinct: 7000,
		options: func(s uint64) server.PlaceRequest {
			return server.PlaceRequest{Args: []int64{int64(s % 7)}, Run: true, Tier: s%2 == 0}
		},
		runSample: 500,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, workloadNames())
}

// program is one distinct corpus entry: its marshaled request, the
// function names the response must list, and, for hot-resubmit, the
// same program with its functions in reverse order.
type program struct {
	seed     uint64
	body     []byte
	funcs    []string
	reversed *program
	// want is the tree-engine value of the unallocated program for the
	// sampled run requests; hasWant marks the sample.
	want    int64
	hasWant bool
}

// corpus is a run's inputs: warm-up programs, then the timed ones.
type corpus struct {
	w       *workload
	warm    []*program
	timed   []*program
	variant uint64 // hot-resubmit schedule stream
}

// draw picks n distinct pool seeds in an order fixed by seed, leaving
// out the seeds the service rejects.
func (w *workload) draw(seed uint64, n int) ([]uint64, error) {
	rejected := rejectedSeeds[w.name]
	if uint64(n+len(rejected)) > w.pool {
		return nil, fmt.Errorf("%s: %d programs asked of a pool of %d", w.name, n, w.pool-uint64(len(rejected)))
	}
	h := fnv.New64a()
	h.Write([]byte(w.name))
	r := rand.New(rand.NewPCG(seed, h.Sum64()))
	seen := make(map[uint64]bool, n+len(rejected))
	for _, s := range rejected {
		seen[s] = true
	}
	out := make([]uint64, 0, n)
	for len(out) < n {
		s := 1 + r.Uint64N(w.pool)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out, nil
}

// buildCorpus generates the run's programs, two at a time. It runs
// before set-up and is not timed.
func buildCorpus(w *workload, seed uint64, warm, timed int) (*corpus, error) {
	seeds, err := w.draw(seed, warm+timed)
	if err != nil {
		return nil, err
	}
	progs := make([]*program, len(seeds))
	// The reference sample is evenly spaced over the first fifth of the
	// timed programs, which every run reaches.
	reach := max(1, timed/5)
	stride := max(1, reach/max(1, w.runSample))
	err = par.Do(len(seeds), workers, func(i int) error {
		j := i - warm
		sample := j >= 0 && j < reach && j%stride == 0 && j/stride < w.runSample
		p, err := w.program(seeds[i], sample)
		progs[i] = p
		return err
	})
	if err != nil {
		return nil, err
	}
	return &corpus{w: w, warm: progs[:warm], timed: progs[warm:], variant: seed ^ 0x5bd1e995}, nil
}

// program generates one corpus entry.
func (w *workload) program(seed uint64, sample bool) (*program, error) {
	g := irgen.Generate(seed, w.gen)
	p := &program{seed: seed}
	if sample {
		// The reference is independent of the service: the tree engine
		// on the freshly generated program, before any allocation.
		v, err := vm.New(g, vm.Config{Engine: vm.EngineTree}).Run(w.options(seed).Args...)
		if err != nil {
			return nil, fmt.Errorf("reference run of seed %d: %w", seed, err)
		}
		p.want, p.hasWant = v, true
	}
	if err := p.fill(w, g); err != nil {
		return nil, err
	}
	if w.resubmit {
		slices.Reverse(g.Order)
		p.reversed = &program{seed: seed}
		if err := p.reversed.fill(w, g); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *program) fill(w *workload, g *ir.Program) error {
	req := w.options(p.seed)
	req.IR = irtext.Print(g)
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	p.body = body
	p.funcs = slices.Clone(g.Order)
	return nil
}

// request is one scheduled submission.
type request struct {
	prog *program
	body []byte
	// key identifies the expected response bytes: a resubmission or a
	// comment variant must repeat its program's first response. -1
	// means no other request shares it.
	key int
	// idx is the program's index in the timed corpus; verbatim marks
	// its unmodified form, the one the traced run replays.
	idx      int
	verbatim bool
}

// at returns the i-th timed request. It is a pure function of i, so
// the schedule is the same whichever client sends it.
func (c *corpus) at(i int) request {
	if !c.w.resubmit {
		return c.verbatim(i % len(c.timed))
	}
	// Programs are drawn uniformly; about 10% of requests carry a
	// unique comment line (a raw-key miss that parses to a cached
	// canonical key) and 5% reverse the function order (a program of
	// its own, cached by prime).
	r := splitmix(c.variant + uint64(i))
	j := int(r % uint64(len(c.timed)))
	p := c.timed[j]
	switch u := (r >> 32) % 100; {
	case u < 10:
		return request{prog: p, body: withComment(p.body, i), key: 2 * j, idx: j}
	case u < 15:
		return c.reversed(j)
	}
	return c.verbatim(j)
}

// prime is the i-th of the untimed requests that fill the caches
// before a resubmit workload's timed phase: every timed program in its
// verbatim and reversed form, so that the timed phase measures the
// caches full rather than filling.
func (c *corpus) prime(i int) request {
	if i%2 == 1 {
		return c.reversed(i / 2)
	}
	return c.verbatim(i / 2)
}

// reversed is timed program j with its functions in reverse order.
func (c *corpus) reversed(j int) request {
	p := c.timed[j].reversed
	return request{prog: p, body: p.body, key: 2*j + 1, idx: j}
}

// verbatim is timed program j's unmodified request.
func (c *corpus) verbatim(j int) request {
	key := -1
	if c.w.resubmit {
		key = 2 * j
	}
	return request{prog: c.timed[j], body: c.timed[j].body, key: key, idx: j, verbatim: true}
}

// warmUp is warm-up program i's request.
func (c *corpus) warmUp(i int) request {
	p := c.warm[i]
	return request{prog: p, body: p.body, key: -1}
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// irPrefix opens every marshaled request: PlaceRequest's first field.
const irPrefix = `{"ir":"`

// withComment prepends "# variant k" to the request's IR without
// re-marshaling it.
func withComment(body []byte, k int) []byte {
	line := fmt.Sprintf(`# variant %d\n`, k)
	out := make([]byte, 0, len(body)+len(line))
	out = append(out, irPrefix...)
	out = append(out, line...)
	return append(out, body[len(irPrefix):]...)
}
