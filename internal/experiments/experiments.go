// Package experiments regenerates every figure of the paper's evaluation
// (Figures 5-8): for each dataset distribution (UNF, SKW) and cardinality n,
// it outsources the same dataset under both SAE and TOM, runs the paper's
// query workload (100 uniform queries of 0.5% extent), and collects the
// communication, processing, verification and storage metrics.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"sae/internal/core"
	"sae/internal/costmodel"
	"sae/internal/tom"
	"sae/internal/workload"
)

// Config parameterizes a sweep.
type Config struct {
	Cardinalities []int
	Dists         []workload.Distribution
	NumQueries    int
	Extent        float64
	Seed          int64
	// Progress, if non-nil, receives one line per sweep step.
	Progress func(string)
}

// PaperScale is the paper's exact parameter grid: n from 100K to 1M, both
// distributions, 100 queries of 0.5% extent.
func PaperScale() Config {
	return Config{
		Cardinalities: []int{100_000, 250_000, 500_000, 750_000, 1_000_000},
		Dists:         []workload.Distribution{workload.UNF, workload.SKW},
		NumQueries:    100,
		Extent:        workload.DefaultExtent,
		Seed:          1,
	}
}

// QuickScale is a laptop-friendly sweep preserving the figures' shapes.
func QuickScale() Config {
	return Config{
		Cardinalities: []int{20_000, 50_000, 100_000},
		Dists:         []workload.Distribution{workload.UNF, workload.SKW},
		NumQueries:    50,
		Extent:        workload.DefaultExtent,
		Seed:          1,
	}
}

// Cell is the full set of measurements for one (distribution, n) grid point.
type Cell struct {
	Dist workload.Distribution
	N    int

	AvgResultSize float64

	// Figure 5: authentication bytes shipped per query.
	VTBytes    int     // SAE: constant 20
	AvgVOBytes float64 // TOM: grows with n

	// Figure 6: per-query processing (averages).
	SAESPIndex costmodel.Breakdown // B+-tree traversal + leaf scan
	SAESPFetch costmodel.Breakdown // dataset-file scan
	SAETE      costmodel.Breakdown // XB-Tree token generation
	TOMSPIndex costmodel.Breakdown // MB-Tree traversal + VO assembly
	TOMSPFetch costmodel.Breakdown

	// Figure 7: client verification CPU (averages).
	SAEClient costmodel.Breakdown
	TOMClient costmodel.Breakdown

	// Figure 8: storage.
	SAESPBytes int64
	TOMSPBytes int64
	TEBytes    int64
}

// SAESPTotal is the SP's full per-query cost under SAE.
func (c *Cell) SAESPTotal() costmodel.Breakdown { return c.SAESPIndex.Add(c.SAESPFetch) }

// TOMSPTotal is the SP's full per-query cost under TOM.
func (c *Cell) TOMSPTotal() costmodel.Breakdown { return c.TOMSPIndex.Add(c.TOMSPFetch) }

// IndexReduction is SAE's SP saving over TOM on the index component — the
// paper's 24-39% band.
func (c *Cell) IndexReduction() float64 {
	t := costmodel.Millis(c.TOMSPIndex.Total())
	if t == 0 {
		return 0
	}
	return 1 - costmodel.Millis(c.SAESPIndex.Total())/t
}

// TotalReduction is the saving including the (identical) dataset fetch.
func (c *Cell) TotalReduction() float64 {
	t := costmodel.Millis(c.TOMSPTotal().Total())
	if t == 0 {
		return 0
	}
	return 1 - costmodel.Millis(c.SAESPTotal().Total())/t
}

func (cfg *Config) progress(format string, args ...any) {
	if cfg.Progress != nil {
		cfg.Progress(fmt.Sprintf(format, args...))
	}
}

// Sweep measures every grid point. Systems are built and released one at a
// time to bound peak memory (a 1M-record dataset is ~0.5 GB per provider).
func Sweep(cfg Config) ([]*Cell, error) {
	var cells []*Cell
	for _, dist := range cfg.Dists {
		for _, n := range cfg.Cardinalities {
			cell, err := runCell(cfg, dist, n)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s n=%d: %w", dist, n, err)
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

func runCell(cfg Config, dist workload.Distribution, n int) (*Cell, error) {
	cfg.progress("[%s n=%d] generating dataset", dist, n)
	ds, err := workload.Generate(dist, n, cfg.Seed)
	if err != nil {
		return nil, err
	}
	queries := workload.Queries(cfg.NumQueries, cfg.Extent, cfg.Seed+int64(n))
	cell := &Cell{Dist: dist, N: n, VTBytes: core.VTSize}

	// --- SAE ---
	cfg.progress("[%s n=%d] building SAE system", dist, n)
	start := time.Now()
	sae, err := core.NewSystem(ds.Records)
	if err != nil {
		return nil, err
	}
	cfg.progress("[%s n=%d] SAE built in %v; running %d queries", dist, n, time.Since(start).Round(time.Millisecond), len(queries))
	var resultSum int
	for _, q := range queries {
		out, err := sae.Query(q)
		if err != nil {
			return nil, err
		}
		if out.VerifyErr != nil {
			return nil, fmt.Errorf("SAE verification failed for %v: %w", q, out.VerifyErr)
		}
		resultSum += len(out.Result)
		cell.SAESPIndex = cell.SAESPIndex.Add(out.SPCost.Index)
		cell.SAESPFetch = cell.SAESPFetch.Add(out.SPCost.Fetch)
		cell.SAETE = cell.SAETE.Add(out.TECost)
		cell.SAEClient = cell.SAEClient.Add(out.ClientCost)
	}
	nq := len(queries)
	cell.AvgResultSize = float64(resultSum) / float64(nq)
	cell.SAESPIndex = cell.SAESPIndex.Div(nq)
	cell.SAESPFetch = cell.SAESPFetch.Div(nq)
	cell.SAETE = cell.SAETE.Div(nq)
	cell.SAEClient = cell.SAEClient.Div(nq)
	cell.SAESPBytes = sae.SP.StorageBytes()
	cell.TEBytes = sae.TE.StorageBytes()
	sae = nil
	runtime.GC()

	// --- TOM ---
	cfg.progress("[%s n=%d] building TOM system", dist, n)
	start = time.Now()
	tomSys, err := tom.NewSystem(ds.Records)
	if err != nil {
		return nil, err
	}
	cfg.progress("[%s n=%d] TOM built in %v; running %d queries", dist, n, time.Since(start).Round(time.Millisecond), len(queries))
	var voBytes int64
	for _, q := range queries {
		out, err := tomSys.Query(q)
		if err != nil {
			return nil, err
		}
		if out.VerifyErr != nil {
			return nil, fmt.Errorf("TOM verification failed for %v: %w", q, out.VerifyErr)
		}
		voBytes += int64(out.VO.Size())
		cell.TOMSPIndex = cell.TOMSPIndex.Add(out.SPCost.Index)
		cell.TOMSPFetch = cell.TOMSPFetch.Add(out.SPCost.Fetch)
		cell.TOMClient = cell.TOMClient.Add(out.ClientCost)
	}
	cell.AvgVOBytes = float64(voBytes) / float64(nq)
	cell.TOMSPIndex = cell.TOMSPIndex.Div(nq)
	cell.TOMSPFetch = cell.TOMSPFetch.Div(nq)
	cell.TOMClient = cell.TOMClient.Div(nq)
	cell.TOMSPBytes = tomSys.Provider.StorageBytes()
	tomSys = nil
	runtime.GC()

	return cell, nil
}

// WriteJSON emits a figure's machine-readable result (the BENCH_*.json
// payload) as indented JSON.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
