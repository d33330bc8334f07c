package experiments

import (
	"testing"
	"time"

	"sae/internal/costmodel"
	"sae/internal/workload"
)

// paperColumns is one (distribution, n) point of the paper's figures,
// reduced to the columns that do not depend on wall-clock time: result and
// VO sizes (Figure 5), node accesses (Figure 6), storage (Figure 8) and
// the update experiment's accesses.
type paperColumns struct {
	dist                                                  workload.Distribution
	avgResultSize, avgVOBytes                             float64
	saeSPIndex, saeSPFetch, saeTE, tomSPIndex, tomSPFetch charge
	saeSPBytes, tomSPBytes, teBytes                       int64
	updSAESP, updSAETE, updTOMSP                          float64
}

// charge is a phase's node accesses per query: accesses is the exact
// mean, and io the mean simulated I/O time at 10 ms per access.
type charge struct {
	accesses float64
	io       time.Duration
}

func chargeOf(b costmodel.Breakdown) charge { return charge{b.Accesses, b.IO} }

// TestPaperFigureColumns pins the access, byte and size columns of figures
// 5, 6, 8 and the update experiment at n = 20 000, seeded as saebench is.
// These columns are exact: they follow from the trees' page layouts, split
// points and descents alone, so a refactor of any index must leave every
// value here unchanged. (The printed figures add measured CPU time to the
// access charge, so diffing saebench output is not exact.)
func TestPaperFigureColumns(t *testing.T) {
	if raceEnabled {
		t.Skip("two full sweeps are slow under the race detector")
	}
	cfg := QuickScale()
	cfg.Cardinalities = []int{20_000}
	cells, err := Sweep(cfg)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	upd, err := RunUpdates(cfg)
	if err != nil {
		t.Fatalf("RunUpdates: %v", err)
	}
	const us = time.Microsecond
	want := []paperColumns{
		{dist: workload.UNF, avgResultSize: 100.14, avgVOBytes: 8182.64,
			saeSPIndex: charge{2.2, 22_000 * us}, saeSPFetch: charge{13.36, 133_600 * us}, saeTE: charge{4.64, 46_400 * us},
			tomSPIndex: charge{5.82, 58_200 * us}, tomSPFetch: charge{13.36, 133_600 * us},
			saeSPBytes: 10448896, tomSPBytes: 10862592, teBytes: 1343488,
			updSAESP: 6.005, updSAETE: 8.29, updTOMSP: 8.02},
		{dist: workload.SKW, avgResultSize: 182.7, avgVOBytes: 7240.86,
			saeSPIndex: charge{2.44, 24_400 * us}, saeSPFetch: charge{23.68, 236_800 * us}, saeTE: charge{3.68, 36_800 * us},
			tomSPIndex: charge{6.28, 62_800 * us}, tomSPFetch: charge{23.68, 236_800 * us},
			saeSPBytes: 10448896, tomSPBytes: 10862592, teBytes: 1323008,
			updSAESP: 6.115, updSAETE: 8.66, updTOMSP: 8.285},
	}
	if len(cells) != len(want) || len(upd) != len(want) {
		t.Fatalf("%d figure cells and %d update cells, want %d each", len(cells), len(upd), len(want))
	}
	for i, c := range cells {
		u := upd[i]
		got := paperColumns{
			dist:          c.Dist,
			avgResultSize: c.AvgResultSize, avgVOBytes: c.AvgVOBytes,
			saeSPIndex: chargeOf(c.SAESPIndex), saeSPFetch: chargeOf(c.SAESPFetch), saeTE: chargeOf(c.SAETE),
			tomSPIndex: chargeOf(c.TOMSPIndex), tomSPFetch: chargeOf(c.TOMSPFetch),
			saeSPBytes: c.SAESPBytes, tomSPBytes: c.TOMSPBytes, teBytes: c.TEBytes,
			updSAESP: u.SAESPAccesses, updSAETE: u.SAETEAccesses, updTOMSP: u.TOMSPAccesses,
		}
		if got != want[i] {
			t.Errorf("[%s n=%d] columns\n got %+v\nwant %+v", c.Dist, c.N, got, want[i])
		}
	}
}
