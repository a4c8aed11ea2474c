package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json -compare reads.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns loads a directory of run outputs. A file holds one run's
// standard output and is named WORKLOAD.ANYTHING; its last line is the
// result. It returns, per workload and metric, the values in file name
// order.
func readRuns(dir string) (map[string]map[string][]float64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	runs := make(map[string]map[string][]float64)
	for _, name := range names {
		workload, _, _ := strings.Cut(filepath.Base(name), ".")
		res, err := lastResult(name)
		if err != nil {
			return nil, err
		}
		if runs[workload] == nil {
			runs[workload] = make(map[string][]float64)
		}
		for m, v := range res.Metrics {
			runs[workload][m] = append(runs[workload][m], v.Value)
		}
		runs[workload][failFrac.Name] = append(runs[workload][failFrac.Name], float64(res.Failed)/float64(max(1, res.Attempted)))
	}
	return runs, nil
}

// failFrac is the result's failed ÷ attempted, compared like a metric
// without a bound: the number a fix for a rejected request lowers.
var failFrac = specMetric{Name: "fail_frac", Unit: "ratio", Better: "lower"}

func lastResult(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return &res, nil
}

// compareRuns prints, per workload and metric, each side's median and
// quartiles, the share of run pairs B won, and a verdict against the
// metric's bound: A is the parent, B the change.
func compareRuns(out io.Writer, specPath, dirA, dirB string) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readRuns(dirA)
	if err != nil {
		return err
	}
	b, err := readRuns(dirB)
	if err != nil {
		return err
	}
	workloads := make([]string, 0, len(a))
	for w := range a {
		if b[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	if len(workloads) == 0 {
		return fmt.Errorf("no workload has runs in both %s and %s", dirA, dirB)
	}
	fmt.Fprintf(out, "%-13s %-32s %-28s %-28s %6s %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B won", "verdict")
	for _, w := range workloads {
		for _, m := range append(append(slices.Clone(sp.EndToEnd), failFrac), sp.PerLayer...) {
			va, vb := a[w][m.Name], b[w][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			won, verdict := judge(va, vb, m)
			fmt.Fprintf(out, "%-13s %-32s %-28s %-28s %6.2f %s\n", w, m.Name, summary(va), summary(vb), won, verdict)
		}
	}
	return nil
}

func summary(v []float64) string {
	q1, med, q3 := quartiles(v)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", med, q1, q3)
}

// judge applies the rule for claiming a gain: B is better when it wins
// at least nine tenths of the run pairs (ties count for neither) and
// the medians differ by more than A's quartile distance. Otherwise,
// against the metric's bound: unresolved when A's own spread exceeds
// the bound and not every B run beats every A run, worse when B's
// median is worse than A's by more than the bound, same otherwise.
// Metrics without a bound are same unless one side wins clearly.
func judge(a, b []float64, m specMetric) (won float64, verdict string) {
	lower := m.Better == "lower"
	better := func(x, y float64) bool { // x reads better than y
		if lower {
			return x < y
		}
		return x > y
	}
	pairs := min(len(a), len(b))
	winsB, winsA := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(b[i], a[i]):
			winsB++
		case better(a[i], b[i]):
			winsA++
		}
	}
	won = float64(winsB) / float64(pairs)
	q1, medA, q3 := quartiles(a)
	_, medB, _ := quartiles(b)
	gap := math.Abs(medB - medA)
	clear := gap > q3-q1
	switch {
	case clear && won >= 0.9 && better(medB, medA):
		return won, "better"
	case clear && float64(winsA)/float64(pairs) >= 0.9 && m.Bound == 0:
		return won, "worse"
	case m.Bound == 0:
		return won, "same"
	}
	scale := math.Abs(medA)
	if scale == 0 {
		scale = 1
	}
	if (q3-q1)/scale > m.Bound {
		if allBetter(a, b, better) {
			return won, "better"
		}
		return won, "unresolved"
	}
	worse := (medB - medA) / scale
	if !lower {
		worse = -worse
	}
	if worse > m.Bound {
		return won, "worse"
	}
	return won, "same"
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// quartiles matches Python's statistics.quantiles(v, n=4), the
// exclusive method, with the median in the middle.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Clone(v)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}
