package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/irtext"
	"repro/internal/par"
)

// LoadgenOptions configures a loadgen sweep against a running
// service.
type LoadgenOptions struct {
	// Distinct is the number of distinct generated programs; Dups the
	// number of identical resubmissions of each.
	Distinct int
	// Dups is the cached-phase resubmission count per program.
	Dups int
	// Reorder adds one function-reordered variant per program: a
	// program-cache miss whose functions all hit the function cache.
	Reorder bool
	// Seed is the base irgen seed for the corpus.
	Seed uint64
	// Workers is the number of concurrent client workers.
	Workers int
	// Machine/Strategy/Args are passed through on every request.
	Machine  string
	Strategy string
	Args     []int64
}

func (o LoadgenOptions) withDefaults() LoadgenOptions {
	if o.Distinct <= 0 {
		o.Distinct = 100
	}
	if o.Dups <= 0 {
		o.Dups = 9
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Args == nil {
		o.Args = []int64{5}
	}
	return o
}

// LoadgenResult reports one sweep: request counts, per-phase wall
// times, and the service-side cache counter deltas each phase caused.
type LoadgenResult struct {
	Distinct  int `json:"distinct"`
	Dups      int `json:"dups"`
	Workers   int `json:"workers"`
	Requests  int `json:"requests"`
	Functions int `json:"functions"`

	// Phase wall times: cold = first submission of each distinct
	// program, cached = identical resubmissions, reorder = reordered
	// variants (0 when the phase is disabled).
	ColdNs    int64 `json:"cold_ns"`
	CachedNs  int64 `json:"cached_ns"`
	ReorderNs int64 `json:"reorder_ns"`

	ColdNsPerReq   float64 `json:"cold_ns_per_req"`
	CachedNsPerReq float64 `json:"cached_ns_per_req"`
	// CachedSpeedup is cold-per-request over cached-per-request.
	CachedSpeedup float64 `json:"cached_speedup"`

	// Service-side counter deltas, phase-bracketed via /metrics: with
	// a deduplicated corpus and no other clients they are exact —
	// ProgramHits (cached phase) = Distinct*Dups, FunctionHits
	// (reorder phase) = Functions.
	ProgramHits   int64 `json:"program_hits"`
	ProgramMisses int64 `json:"program_misses"`
	FunctionHits  int64 `json:"function_hits"`
}

// Loadgen generates a deduplicated corpus of irgen programs and
// drives baseURL through a cold phase (every program once), a cached
// phase (every program resubmitted Dups times), and optionally a
// reorder phase (every program with its function definitions
// reversed — a program-cache miss assembled from function-cache
// hits). Any non-200 fails the sweep.
func Loadgen(client *http.Client, baseURL string, opt LoadgenOptions) (*LoadgenResult, error) {
	opt = opt.withDefaults()
	texts, reordered, functions, err := corpus(opt)
	if err != nil {
		return nil, err
	}

	res := &LoadgenResult{
		Distinct:  opt.Distinct,
		Dups:      opt.Dups,
		Workers:   opt.Workers,
		Functions: functions,
	}
	submit := func(text string) error {
		body, err := json.Marshal(PlaceRequest{
			IR:       text,
			Machine:  opt.Machine,
			Strategy: opt.Strategy,
			Args:     opt.Args,
		})
		if err != nil {
			return err
		}
		resp, err := client.Post(baseURL+"/v1/place", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("status %d: reading body: %w", resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d: %s", resp.StatusCode, out)
		}
		return nil
	}
	phase := func(n int, pick func(i int) string) (int64, error) {
		start := time.Now()
		err := par.Do(n, opt.Workers, func(i int) error { return submit(pick(i)) })
		return time.Since(start).Nanoseconds(), err
	}

	s0, err := metricsSnapshot(client, baseURL)
	if err != nil {
		return nil, err
	}
	if res.ColdNs, err = phase(opt.Distinct, func(i int) string { return texts[i] }); err != nil {
		return nil, fmt.Errorf("cold phase: %w", err)
	}
	s1, err := metricsSnapshot(client, baseURL)
	if err != nil {
		return nil, err
	}
	if res.CachedNs, err = phase(opt.Distinct*opt.Dups, func(i int) string { return texts[i%opt.Distinct] }); err != nil {
		return nil, fmt.Errorf("cached phase: %w", err)
	}
	s2, err := metricsSnapshot(client, baseURL)
	if err != nil {
		return nil, err
	}
	if opt.Reorder {
		if res.ReorderNs, err = phase(opt.Distinct, func(i int) string { return reordered[i] }); err != nil {
			return nil, fmt.Errorf("reorder phase: %w", err)
		}
	}
	s3, err := metricsSnapshot(client, baseURL)
	if err != nil {
		return nil, err
	}

	res.Requests = opt.Distinct * (1 + opt.Dups)
	if opt.Reorder {
		res.Requests += opt.Distinct
	}
	res.ColdNsPerReq = float64(res.ColdNs) / float64(opt.Distinct)
	res.CachedNsPerReq = float64(res.CachedNs) / float64(opt.Distinct*opt.Dups)
	if res.CachedNsPerReq > 0 {
		res.CachedSpeedup = res.ColdNsPerReq / res.CachedNsPerReq
	}
	res.ProgramHits = s2.ProgramCache.Hits - s1.ProgramCache.Hits
	res.ProgramMisses = s3.ProgramCache.Misses - s0.ProgramCache.Misses
	res.FunctionHits = s3.FunctionCache.Hits - s2.FunctionCache.Hits
	return res, nil
}

// corpus builds Distinct unique canonical program texts (advancing
// the seed past any textual duplicates, so service-side counter
// expectations stay exact) plus their function-reversed variants, and
// counts the total functions.
func corpus(opt LoadgenOptions) (texts, reordered []string, functions int, err error) {
	seen := make(map[string]bool, opt.Distinct)
	seed := opt.Seed
	for len(texts) < opt.Distinct {
		prog := irgen.Generate(seed, irgen.Small())
		seed++
		text := irtext.Print(prog)
		if seen[text] {
			continue
		}
		seen[text] = true
		texts = append(texts, text)
		functions += len(prog.Order)
		reordered = append(reordered, irtext.Print(reverseFuncs(prog)))
	}
	return texts, reordered, functions, nil
}

// reverseFuncs reverses the program's function definition order in
// place: same semantics and per-function bodies, different canonical
// text. Print records the entry point explicitly, so moving main is
// safe.
func reverseFuncs(p *ir.Program) *ir.Program {
	for i, j := 0, len(p.Order)-1; i < j; i, j = i+1, j-1 {
		p.Order[i], p.Order[j] = p.Order[j], p.Order[i]
	}
	return p
}

func metricsSnapshot(client *http.Client, baseURL string) (*Snapshot, error) {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", resp.StatusCode)
	}
	var sn Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return &sn, nil
}
