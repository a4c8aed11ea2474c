package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irtext"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/strategy"
	"repro/internal/vm"
)

// maxVMSteps is server.Config's default MaxVMSteps, which the server
// under test runs with.
const maxVMSteps = 1 << 26

// counts are the exact per-request work counters of the traced run.
type counts struct {
	analysis    analysis.Counts
	profInstrs  int64
	runInstrs   int64
	spill       int64
	saveRestore int64
	jumpBlock   int64
	boundaries  int
	replaced    int64
}

// replicate answers one /v1/place request the way the server does on
// a miss in both caches, calling the same public functions in the
// same order, each inside a span. Its reply bytes must equal the
// server's; that check is what ties the per-layer numbers to the real
// path. Like the server, it fills in the request's defaults itself.
func replicate(req server.PlaceRequest, t *tracer, n *counts) (int, []byte) {
	root := t.begin("request")
	status, body := replicateBody(&req, t, n)
	t.end(root)
	return status, body
}

func replicateBody(req *server.PlaceRequest, t *tracer, n *counts) (int, []byte) {
	if req.Machine == "" {
		req.Machine = "classic"
	}
	if req.Strategy == "" {
		req.Strategy = "hierarchical-jump"
	}
	if req.Alloc == "" {
		req.Alloc = "uniform"
	}
	engineGiven := req.Engine != ""
	if req.Tier {
		req.Run = true
	}
	if req.Engine == "" {
		req.Engine = "bytecode"
	}
	allocMachine, err := spillopt.ParseAllocMode(req.Alloc)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	// The replica covers the options the workloads send, which leave
	// out strategy=best.
	strat, err := spillopt.ParseStrategy(req.Strategy)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	mach, err := machine.Preset(req.Machine)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}

	sp := t.begin("server.keys")
	_ = programKey(req.IR, req)
	t.end(sp)

	sp = t.begin("irtext.parse")
	prog, err := spillopt.ParseProgram(req.IR)
	t.end(sp)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	if err := prog.UseMachine(req.Machine); err != nil {
		return fail(http.StatusBadRequest, err)
	}
	if allocMachine {
		if err := prog.UseMachineAllocation(); err != nil {
			return fail(http.StatusInternalServerError, err)
		}
	}

	// The server looks the canonical text up under this key when it
	// differs from the raw one.
	sp = t.begin("server.keys")
	_ = programKey(prog.Text(), req)
	t.end(sp)

	ac := analysis.NewCache()
	prog.UseAnalysisCache(ac)
	prog.Parallelism = 1
	prog.MaxSteps = maxVMSteps
	if engineGiven || !req.Tier {
		if err := prog.UseEngine(req.Engine); err != nil {
			return fail(http.StatusBadRequest, err)
		}
	}
	if req.Tier {
		if err := prog.UseTiering(req.Quantum); err != nil {
			return fail(http.StatusInternalServerError, err)
		}
	} else {
		sp = t.begin("profile.collect")
		err := prog.Profile(req.Args...)
		t.end(sp)
		if err != nil {
			return fail(http.StatusBadRequest, err)
		}
	}
	funcs := prog.IRFuncs()
	if !req.Tier {
		n.profInstrs += profiledInstrs(funcs)
	}

	sp = t.begin("server.keys")
	hashes := make([]string, len(funcs))
	for i, f := range funcs {
		hashes[i] = funcHash(f)
	}
	t.end(sp)

	sp = t.begin("regalloc.allocate")
	err = prog.Allocate()
	t.end(sp)
	if err != nil {
		return fail(http.StatusBadRequest, err)
	}
	defer func() { n.analysis = addCounts(n.analysis, ac.Counts()) }()

	var run *server.RunResult
	if req.Tier {
		sp = t.begin("tier.run")
		res, err := placeAndRunTiered(prog, strat, req.Args)
		t.end(sp)
		if err != nil {
			return fail(http.StatusBadRequest, err)
		}
		run = res
		if tr := prog.TierReport(); tr != nil {
			if tr.Boundary {
				n.boundaries++
			}
			n.replaced += int64(tr.Replaced)
		}
	} else {
		if err := place(funcs, strategy.Strategy(strat), ac, mach, t); err != nil {
			return fail(http.StatusInternalServerError, err)
		}
		if req.Run {
			res, err := runPlaced(funcs, mach, req, t)
			if err != nil {
				return fail(http.StatusBadRequest, err)
			}
			run = res
		}
	}
	if run != nil {
		n.runInstrs += run.Instrs
	}

	sp = t.begin("spillopt.report")
	reports, err := prog.Report()
	t.end(sp)
	if err != nil {
		return fail(http.StatusInternalServerError, err)
	}
	resp := &server.PlaceResponse{
		Machine:   req.Machine,
		Strategy:  req.Strategy,
		Functions: make([]server.FunctionEntry, len(reports)),
		Run:       run,
	}
	for i, r := range reports {
		resp.Functions[i] = server.FunctionEntry{Hash: hashes[i], FunctionReport: r}
		resp.TotalOverhead += r.Overhead
		resp.TotalCost += r.Cost
		n.spill += int64(r.SpillInstrs)
		n.saveRestore += int64(r.SaveInstrs + r.RestoreInstrs)
		n.jumpBlock += int64(r.JumpBlockInstrs)
	}
	if req.Emit {
		resp.Text = prog.Text()
	}
	sp = t.begin("server.marshal")
	body, err := json.Marshal(resp)
	t.end(sp)
	if err != nil {
		return fail(http.StatusInternalServerError, err)
	}
	return http.StatusOK, body
}

func fail(status int, err error) (int, []byte) {
	body, _ := json.Marshal(map[string]string{"error": err.Error()})
	return status, body
}

// analyses builds, each in its own span, the analyses a strategy
// reads through the function's cache entry. They are memoized, so the
// strategy that follows finds them built.
func analyses(info *analysis.Info, s strategy.Strategy, t *tracer) error {
	sp := t.begin("analysis.liveness")
	info.Liveness()
	t.end(sp)
	if s.IsHierarchical() {
		sp = t.begin("analysis.pst")
		_, err := info.PST()
		t.end(sp)
		if err != nil {
			return err
		}
	}
	if s == strategy.ShrinkwrapSeed || s.IsHierarchical() {
		sp = t.begin("analysis.seed")
		info.ShrinkwrapSeed()
		t.end(sp)
	}
	return nil
}

// place is strategy.PlaceProgramFor on one worker, split into spans.
func place(funcs []*ir.Func, s strategy.Strategy, ac *analysis.Cache, mach *machine.Desc, t *tracer) error {
	for _, f := range funcs {
		if len(f.UsedCalleeSaved) == 0 {
			continue
		}
		if err := placeFunc(f, s, ac.For(f), mach, t); err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
	}
	return nil
}

func placeFunc(f *ir.Func, s strategy.Strategy, info *analysis.Info, mach *machine.Desc, t *tracer) error {
	if err := analyses(info, s, t); err != nil {
		return err
	}
	sp := t.begin("strategy.compute")
	sets, err := strategy.ComputeCachedFor(f, s, info, mach)
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("core.validate")
	err = core.ValidateSetsLive(f, sets, info.Liveness())
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("core.apply")
	delta, err := core.ApplyWithDelta(f, sets)
	t.end(sp)
	sp = t.begin("analysis.patch")
	info.ApplyDelta(delta)
	t.end(sp)
	return err
}

// placeAndRunTiered is the facade's deferred tiered placement and run.
func placeAndRunTiered(prog *spillopt.Program, s spillopt.Strategy, args []int64) (*server.RunResult, error) {
	if err := prog.Place(s); err != nil {
		return nil, err
	}
	res, err := prog.Run(args...)
	if err != nil {
		return nil, err
	}
	return &server.RunResult{Value: res.Value, Instrs: res.Instrs, Overhead: res.Overhead, Cost: res.Cost}, nil
}

// runPlaced is spillopt.Program.Run, split into compile and execute.
// Every corpus program's entry point is irgen's "main".
func runPlaced(funcs []*ir.Func, mach *machine.Desc, req *server.PlaceRequest, t *tracer) (*server.RunResult, error) {
	p := ir.NewProgram()
	for _, f := range funcs {
		p.Add(f)
	}
	p.Main = "main"
	eng, err := vm.ParseEngine(req.Engine)
	if err != nil {
		return nil, err
	}
	sp := t.begin("vm.compile")
	m := vm.New(p, vm.Config{Machine: mach, Engine: eng, MaxSteps: maxVMSteps})
	t.end(sp)
	sp = t.begin("vm.exec")
	v, err := m.Run(req.Args...)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	st := m.Stats
	return &server.RunResult{Value: v, Instrs: st.Instrs, Overhead: st.Overhead(), Cost: st.WeightedOverhead(mach.Costs)}, nil
}

// profiledInstrs is the instruction count the profile run executed,
// from the block counts it wrote onto the CFG.
func profiledInstrs(funcs []*ir.Func) int64 {
	var total int64
	for _, f := range funcs {
		for _, b := range f.Blocks {
			count := int64(0)
			if b == f.Entry {
				count = f.EntryCount
			}
			for _, e := range b.Preds {
				count += e.Weight
			}
			total += count * int64(len(b.Instrs))
		}
	}
	return total
}

func addCounts(a, b analysis.Counts) analysis.Counts {
	a.Liveness += b.Liveness
	a.Dom += b.Dom
	a.Loops += b.Loops
	a.PST += b.PST
	a.Seed += b.Seed
	a.Busy += b.Busy
	a.SplitDom += b.SplitDom
	a.DeltaPatched += b.DeltaPatched
	a.DeltaFull += b.DeltaFull
	return a
}

// programKey and funcHash repeat the server's cache keys, so the
// replica pays for them where the server does; funcHash is also part
// of the reply.
func programKey(canonical string, req *server.PlaceRequest) string {
	h := sha256.New()
	io.WriteString(h, canonical)
	h.Write([]byte{0})
	io.WriteString(h, req.Machine)
	h.Write([]byte{0})
	io.WriteString(h, req.Strategy)
	h.Write([]byte{0})
	io.WriteString(h, req.Alloc)
	h.Write([]byte{0})
	var buf [8]byte
	for _, a := range req.Args {
		binary.LittleEndian.PutUint64(buf[:], uint64(a))
		h.Write(buf[:])
	}
	flags := byte(0)
	if req.Run {
		flags |= 1
	}
	if req.Emit {
		flags |= 2
	}
	if req.Tier {
		flags |= 4
	}
	h.Write([]byte{0, flags})
	binary.LittleEndian.PutUint64(buf[:], uint64(req.Quantum))
	h.Write(buf[:])
	io.WriteString(h, req.Engine)
	return hex.EncodeToString(h.Sum(nil))
}

func funcHash(f *ir.Func) string {
	var b strings.Builder
	irtext.PrintFunc(&b, f)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
