package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/workload"
)

// paperGolden is the sha256 of Figure5, Table1 and Totals over the
// SPEC suite, without and with jump alignment. The digests were taken
// from the per-benchmark driver the one-machine sweep replaced, so
// they pin the sweep on the classic preset to the paper tables that
// driver printed: every overhead, ratio and merged execution counter.
var paperGolden = map[bool]string{
	false: "5a28f043c5b58dc121105d588c75f3ef18f94c37a7abf978d2d5da68ba240514",
	true:  "7947f2538d3ef5d3c5f2f9294af42a537fabb37851db1430905442833f883fd1",
}

// TestPaperTablesGolden: the paper's evaluation is the one-machine
// sweep on the classic preset, and Options.Align reaches it. The
// aligned run is sharded, so the digest also pins sharding.
func TestPaperTablesGolden(t *testing.T) {
	for align, want := range paperGolden {
		opts := Options{Align: align, Parallelism: 1}
		if align {
			opts.Parallelism = 4
		}
		sw := paperSweep(t, specEntries(workload.SPECInt2000()), opts)
		sum := sha256.Sum256([]byte(Figure5(sw) + Table1(sw) + Totals(sw)))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("align=%v: paper tables digest = %s, want %s\n%s%s%s",
				align, got, want, Figure5(sw), Table1(sw), Totals(sw))
		}
	}
}
