package experiments

import (
	"strings"
	"testing"
	"time"

	"sae/internal/workload"
)

// tinyConfig keeps unit-test sweeps fast.
func tinyConfig() Config {
	return Config{
		Cardinalities: []int{5_000, 10_000},
		Dists:         []workload.Distribution{workload.UNF, workload.SKW},
		NumQueries:    10,
		Extent:        workload.DefaultExtent,
		Seed:          1,
	}
}

func TestSweepShapes(t *testing.T) {
	cells, err := Sweep(tinyConfig())
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells, want 4", len(cells))
	}
	for _, c := range cells {
		// Fig 5 shape: the VT is constant and tiny; the VO is much larger.
		if c.VTBytes != 20 {
			t.Fatalf("[%s n=%d] VT = %d bytes, want 20", c.Dist, c.N, c.VTBytes)
		}
		if c.AvgVOBytes < 10*float64(c.VTBytes) {
			t.Fatalf("[%s n=%d] VO (%.0f B) not much larger than VT", c.Dist, c.N, c.AvgVOBytes)
		}
		// Fig 6 shape: SAE's index work undercuts TOM's; the TE is cheap
		// relative to the SP.
		if r := c.IndexReduction(); r <= 0 {
			t.Fatalf("[%s n=%d] SAE index reduction = %.2f, want > 0", c.Dist, c.N, r)
		}
		if c.SAETE.Total() > c.SAESPTotal().Total() {
			t.Fatalf("[%s n=%d] TE cost exceeds SP cost", c.Dist, c.N)
		}
		// Fig 8 shape: TE storage is a small fraction of SP storage; SP
		// storage is similar under both models.
		if c.TEBytes*3 > c.SAESPBytes {
			t.Fatalf("[%s n=%d] TE storage not small: TE=%d SP=%d", c.Dist, c.N, c.TEBytes, c.SAESPBytes)
		}
		ratio := float64(c.TOMSPBytes) / float64(c.SAESPBytes)
		if ratio < 0.9 || ratio > 1.3 {
			t.Fatalf("[%s n=%d] TOM/SAE SP storage ratio %.2f out of band", c.Dist, c.N, ratio)
		}
	}
	// Growth with n within each distribution: larger n, larger VO and more
	// SP work (fixed-extent queries hit more records).
	byDist := map[workload.Distribution][]*Cell{}
	for _, c := range cells {
		byDist[c.Dist] = append(byDist[c.Dist], c)
	}
	for dist, cs := range byDist {
		if len(cs) < 2 {
			continue
		}
		if cs[0].AvgVOBytes >= cs[1].AvgVOBytes {
			t.Fatalf("[%s] VO size did not grow with n", dist)
		}
		if cs[0].SAESPTotal().Total() >= cs[1].SAESPTotal().Total() {
			t.Fatalf("[%s] SP cost did not grow with n", dist)
		}
	}
}

func TestSweepSKWSmallerResults(t *testing.T) {
	cells, err := Sweep(Config{
		Cardinalities: []int{10_000},
		Dists:         []workload.Distribution{workload.UNF, workload.SKW},
		NumQueries:    20,
		Extent:        workload.DefaultExtent,
		Seed:          2,
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	// The paper: SKW average result cardinality is smaller than UNF for
	// uniformly placed queries (most queries land in the cold region).
	if cells[1].AvgResultSize >= cells[0].AvgResultSize {
		t.Fatalf("SKW avg result (%.0f) not below UNF (%.0f)",
			cells[1].AvgResultSize, cells[0].AvgResultSize)
	}
}

func TestTableRendering(t *testing.T) {
	cells, err := Sweep(Config{
		Cardinalities: []int{5_000},
		Dists:         []workload.Distribution{workload.UNF},
		NumQueries:    5,
		Extent:        workload.DefaultExtent,
		Seed:          3,
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	for _, table := range BuildAll(cells) {
		out := table.Format()
		if !strings.Contains(out, "UNF") || !strings.Contains(out, "5000") {
			t.Fatalf("table %q missing expected cells:\n%s", table.Title, out)
		}
		csv := table.CSV()
		if lines := strings.Count(csv, "\n"); lines != 2 { // header + 1 row
			t.Fatalf("table %q CSV has %d lines, want 2", table.Title, lines)
		}
	}
}

func TestProgressCallback(t *testing.T) {
	var msgs []string
	cfg := Config{
		Cardinalities: []int{2_000},
		Dists:         []workload.Distribution{workload.UNF},
		NumQueries:    3,
		Extent:        workload.DefaultExtent,
		Seed:          4,
		Progress:      func(s string) { msgs = append(msgs, s) },
	}
	if _, err := Sweep(cfg); err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	if len(msgs) == 0 {
		t.Fatal("no progress messages emitted")
	}
}

func TestResponseTimeShape(t *testing.T) {
	cells, err := Sweep(Config{
		Cardinalities: []int{10_000},
		Dists:         []workload.Distribution{workload.UNF},
		NumQueries:    10,
		Extent:        workload.DefaultExtent,
		Seed:          5,
	})
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	sae, tom := ResponseTimes(cells[0], DefaultNetwork)
	if sae >= tom {
		t.Fatalf("SAE response time (%v) not below TOM (%v)", sae, tom)
	}
	table := BuildResponseTime(cells, DefaultNetwork)
	if len(table.Rows) != 1 {
		t.Fatalf("unexpected table rows: %d", len(table.Rows))
	}
}

func TestNetworkModelTransfer(t *testing.T) {
	nm := NetworkModel{RTT: 10 * time.Millisecond, Bandwidth: 1000}
	if got := nm.Transfer(0); got != 10*time.Millisecond {
		t.Fatalf("Transfer(0) = %v, want RTT", got)
	}
	if got := nm.Transfer(1000); got != 10*time.Millisecond+time.Second {
		t.Fatalf("Transfer(1000) = %v", got)
	}
}

func TestUpdateExperimentShape(t *testing.T) {
	cells, err := RunUpdates(Config{
		Cardinalities: []int{8_000},
		Dists:         []workload.Distribution{workload.UNF},
		NumQueries:    25, // => 100 updates
		Extent:        workload.DefaultExtent,
		Seed:          6,
	})
	if err != nil {
		t.Fatalf("RunUpdates: %v", err)
	}
	c := cells[0]
	// Every party's per-update access count is O(height): single digits.
	for name, acc := range map[string]float64{
		"SAE SP": c.SAESPAccesses, "SAE TE": c.SAETEAccesses, "TOM SP": c.TOMSPAccesses,
	} {
		if acc <= 0 || acc > 40 {
			t.Fatalf("%s accesses per update = %.1f, want small positive", name, acc)
		}
	}
	// TOM pays an RSA signature per update; its CPU must dominate SAE's.
	// A wall-clock comparison, so it is skipped under the race detector,
	// whose instrumentation and full-suite load can reorder the two.
	if !raceEnabled && c.TOMWall <= c.SAEWall {
		t.Fatalf("TOM per-update CPU (%v) not above SAE (%v)", c.TOMWall, c.SAEWall)
	}
	table := BuildUpdates(cells)
	if len(table.Rows) != 1 {
		t.Fatal("unexpected update table shape")
	}
}
