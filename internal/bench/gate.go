package bench

// gate.go is the benchmark-regression gate behind cmd/benchdiff: it
// compares a committed BENCH_*.json record with a fresh run of the
// same standing configuration, leaf by leaf. The comparison lives
// here, not in the command, so the gate itself is under test.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
)

// Gate declares how one record is compared. Every leaf of the fresh
// run must reproduce the committed value exactly unless the gate names
// its key host-dependent: the programs, profiles, allocations and
// placements are all seeded, so a count that moves means a regression
// or a stale record. The only other checks are one-sided timing ratios
// and absolute bounds. Keys name every leaf with that JSON key, at any
// depth.
type Gate struct {
	// Host names the keys whose values depend on the host, such as wall
	// times and throughputs; they are not compared. The metadata keys
	// date, go_version and goarch are host-dependent in every record.
	Host []string
	// Ratio maps a timing ratio's key to how many percent its fresh
	// value may fall below the committed one. Both timings of a ratio
	// are taken in one process, so host speed cancels; a rise is never
	// a finding.
	Ratio map[string]float64
	// Min and Max bound a key's fresh value absolutely, whether or not
	// the value is also compared with the committed record.
	Min, Max map[string]float64
}

// hostMeta are the metadata keys every record stamps from the host.
var hostMeta = []string{"date", "go_version", "goarch"}

// Decode parses a JSON record into the tree Compare walks: objects
// become maps, arrays slices, and numbers json.Number, so integers
// compare exactly at any size.
func Decode(data []byte) (any, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return v, nil
}

// Compare returns one finding per leaf of the two Decoded records that
// fails the gate, each starting with the leaf's path (for example
// "engines[1].instrs: "), sorted by path. A leaf or array element
// present on one side only is a finding.
func (g Gate) Compare(committed, fresh any) []string {
	var findings []string
	g.walk("", "", committed, fresh, &findings)
	slices.Sort(findings)
	return findings
}

func (g Gate) walk(path, key string, c, f any, out *[]string) {
	switch cv := c.(type) {
	case map[string]any:
		fv, ok := f.(map[string]any)
		if !ok {
			*out = append(*out, path+": fresh run is not an object")
			return
		}
		for k, cc := range cv {
			if ff, ok := fv[k]; ok {
				g.walk(join(path, k), k, cc, ff, out)
			} else {
				*out = append(*out, join(path, k)+": missing from the fresh run")
			}
		}
		for k := range fv {
			if _, ok := cv[k]; !ok {
				*out = append(*out, join(path, k)+": not in the committed record")
			}
		}
	case []any:
		fv, ok := f.([]any)
		if !ok {
			*out = append(*out, path+": fresh run is not an array")
			return
		}
		for i := range max(len(cv), len(fv)) {
			p := fmt.Sprintf("%s[%d]", path, i)
			switch {
			case i >= len(fv):
				*out = append(*out, p+": missing from the fresh run")
			case i >= len(cv):
				*out = append(*out, p+": not in the committed record")
			default:
				g.walk(p, key, cv[i], fv[i], out)
			}
		}
	default:
		g.leaf(path, key, c, f, out)
	}
}

func (g Gate) leaf(path, key string, c, f any, out *[]string) {
	fv, fnum := number(f)
	if lo, ok := g.Min[key]; ok && !(fnum && fv >= lo) {
		*out = append(*out, fmt.Sprintf("%s: fresh %v is below the bound %v", path, f, lo))
	}
	if hi, ok := g.Max[key]; ok && !(fnum && fv <= hi) {
		*out = append(*out, fmt.Sprintf("%s: fresh %v is above the bound %v", path, f, hi))
	}
	if pct, ok := g.Ratio[key]; ok {
		cv, cnum := number(c)
		if floor := cv * (1 - pct/100); !cnum || !(fnum && fv >= floor) {
			*out = append(*out, fmt.Sprintf("%s: fresh %v fell more than %v%% below committed %v (floor %.4g)",
				path, f, pct, c, floor))
		}
		return
	}
	if slices.Contains(hostMeta, key) || slices.Contains(g.Host, key) {
		return
	}
	if c != f {
		*out = append(*out, fmt.Sprintf("%s: fresh %v, committed %v", path, f, c))
	}
}

// number reads a Decoded leaf as a float64.
func number(v any) (float64, bool) {
	n, ok := v.(json.Number)
	if !ok {
		return 0, false
	}
	x, err := n.Float64()
	return x, err == nil
}

func join(path, key string) string {
	if path == "" {
		return key
	}
	return path + "." + key
}
