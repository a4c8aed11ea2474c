package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestRecordsRegistered: every committed BENCH_*.json at the
// repository root is registered, and every registered record is
// committed.
func TestRecordsRegistered(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed, registered []string
	for _, p := range paths {
		committed = append(committed, filepath.Base(p))
	}
	for _, r := range records {
		registered = append(registered, r.file())
	}
	slices.Sort(registered)
	if !slices.Equal(committed, registered) {
		t.Errorf("committed records %v, registered %v", committed, registered)
	}
}

func TestSelectRecords(t *testing.T) {
	if all, err := selectRecords(nil); err != nil || len(all) != len(records) {
		t.Errorf("no names selected %d records (err %v), want all %d", len(all), err, len(records))
	}
	if vm, err := selectRecords([]string{"vm"}); err != nil || len(vm) != 1 || vm[0].name != "vm" {
		t.Errorf("selecting vm: %v, %v", vm, err)
	}
	if _, err := selectRecords([]string{"vm", "vmm"}); err == nil || !strings.Contains(err.Error(), `"vmm"`) {
		t.Errorf("an unknown name: err = %v, want it named", err)
	}
}

// leaf is one scalar of a decoded record, with the means to replace it
// in place.
type leaf struct {
	path, key string
	val       any
	set       func(any)
}

// leaves lists the scalars of v in the path notation Gate findings use.
func leaves(path, key string, v any, set func(any), out *[]leaf) {
	switch v := v.(type) {
	case map[string]any:
		for k, c := range v {
			p := k
			if path != "" {
				p = path + "." + k
			}
			leaves(p, k, c, func(x any) { v[k] = x }, out)
		}
	case []any:
		for i, c := range v {
			leaves(fmt.Sprintf("%s[%d]", path, i), key, c, func(x any) { v[i] = x }, out)
		}
	default:
		*out = append(*out, leaf{path, key, v, set})
	}
}

func num(f float64) json.Number { return json.Number(strconv.FormatFloat(f, 'g', -1, 64)) }

// degrade returns a different value of the same JSON type.
func degrade(v any) any {
	switch v := v.(type) {
	case json.Number:
		f, _ := v.Float64()
		return num(f + 1 + math.Abs(f)/2)
	case string:
		return v + "~"
	case bool:
		return !v
	}
	return "~"
}

// hasFinding reports whether a finding names path and contains want.
func hasFinding(findings []string, path, want string) bool {
	return slices.ContainsFunc(findings, func(f string) bool {
		return strings.HasPrefix(f, path+": ") && strings.Contains(f, want)
	})
}

// TestCommittedRecordsGate is the gate's self-test on every committed
// record: a record compared with itself is clean; degrading any
// compared leaf gives a finding that names it, while a host-dependent
// leaf may move freely; pushing a declared ratio past its limit, or a
// bounded leaf past its bound, gives a finding, while a ratio within
// its limit or above the committed value does not. Every key a gate
// declares must name a leaf of its record.
func TestCommittedRecordsGate(t *testing.T) {
	for _, r := range records {
		t.Run(r.name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "..", r.file()))
			if err != nil {
				t.Fatal(err)
			}
			committed, err := bench.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := bench.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if findings := r.gate.Compare(committed, fresh); len(findings) != 0 {
				t.Fatalf("self-comparison: %v", findings)
			}
			var ls []leaf
			leaves("", "", fresh, nil, &ls)
			// try compares with one leaf replaced, then restores it.
			try := func(l leaf, v any) []string {
				l.set(v)
				defer l.set(l.val)
				return r.gate.Compare(committed, fresh)
			}
			seen := map[string]bool{}
			compared := 0
			for _, l := range ls {
				seen[l.key] = true
				_, isRatio := r.gate.Ratio[l.key]
				host := slices.Contains(r.gate.Host, l.key) ||
					slices.Contains([]string{"date", "go_version", "goarch"}, l.key)
				switch findings := try(l, degrade(l.val)); {
				case !host && !isRatio:
					compared++
					if !hasFinding(findings, l.path, "fresh") {
						t.Errorf("degrading %s to %v: no finding naming it in %v", l.path, degrade(l.val), findings)
					}
				case host && len(findings) != 0:
					t.Errorf("host-dependent %s moved: %v", l.path, findings)
				}
				if pct, ok := r.gate.Ratio[l.key]; ok {
					c, _ := l.val.(json.Number).Float64()
					if !hasFinding(try(l, num(c*(1-pct/100)*0.99)), l.path, "fell more than") {
						t.Errorf("%s fell past its %v%% limit unnoticed", l.path, pct)
					}
					for _, ok := range []float64{c * (1 - 0.9*pct/100), 2 * c} {
						if findings := try(l, num(ok)); len(findings) != 0 {
							t.Errorf("%s at %v: %v", l.path, ok, findings)
						}
					}
				}
				if lo, ok := r.gate.Min[l.key]; ok && !hasFinding(try(l, num(lo-1)), l.path, "below the bound") {
					t.Errorf("%s below its bound %v unnoticed", l.path, lo)
				}
				if hi, ok := r.gate.Max[l.key]; ok && !hasFinding(try(l, num(hi+1)), l.path, "above the bound") {
					t.Errorf("%s above its bound %v unnoticed", l.path, hi)
				}
			}
			declared := slices.Clone(r.gate.Host)
			for _, m := range []map[string]float64{r.gate.Ratio, r.gate.Min, r.gate.Max} {
				for k := range m {
					declared = append(declared, k)
				}
			}
			for _, k := range declared {
				if !seen[k] {
					t.Errorf("the gate declares %q, which names no leaf of %s", k, r.file())
				}
			}
			t.Logf("%d leaves, %d compared exactly", len(ls), compared)
		})
	}
}
