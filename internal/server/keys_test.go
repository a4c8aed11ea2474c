package server

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"repro"
	"repro/internal/irgen"
	"repro/internal/irtext"
)

// keyOptionSets are normalized request options, as place leaves them
// before keying: the cold-compile and hot-resubmit options, the
// exec-run ones, and every field set.
var keyOptionSets = []PlaceRequest{
	{Machine: "classic", Strategy: "hierarchical-jump", Alloc: "uniform", Args: []int64{5}, Engine: "regcode"},
	{Machine: "classic", Strategy: "hierarchical-jump", Alloc: "uniform", Args: []int64{3}, Run: true, Tier: true, Engine: "regcode"},
	{Machine: "deep-pipeline", Strategy: "best", Alloc: "machine", Args: []int64{5, -2}, Run: true, Emit: true, Tier: true, Quantum: 1000, Engine: "tree"},
}

// TestKeysGolden pins the program-cache keys and the function hashes
// to digests taken before the key code was rewritten to hash without
// copies: a cache key that moved would split or alias entries.
func TestKeysGolden(t *testing.T) {
	const (
		wantProgramKeys = "88102c3fb373baea535716deccc7aa240bace7f4c17af671ce3d96aae9d11651"
		wantFuncHashes  = "75a9022c59f61d50fe90d876fc542d1981703384ed9555edd10af035c751048b"
	)
	pk, fh := sha256.New(), sha256.New()
	for seed := uint64(1); seed <= 50; seed++ {
		src := irtext.Print(irgen.Generate(seed, irgen.Small()))
		for i := range keyOptionSets {
			io.WriteString(pk, programKey(src, &keyOptionSets[i])+"\n")
		}
		prog, err := spillopt.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := prog.Profile(5); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, h := range funcHashes(prog.IRFuncs()) {
			io.WriteString(fh, h+"\n")
		}
	}
	if got := hex.EncodeToString(pk.Sum(nil)); got != wantProgramKeys {
		t.Errorf("program keys digest = %s, want %s", got, wantProgramKeys)
	}
	if got := hex.EncodeToString(fh.Sum(nil)); got != wantFuncHashes {
		t.Errorf("function hashes digest = %s, want %s", got, wantFuncHashes)
	}
}
