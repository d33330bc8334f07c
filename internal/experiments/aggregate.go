package experiments

import (
	"fmt"
	"runtime"
	"time"

	"sae/internal/agg"
	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/record"
	"sae/internal/tom"
	"sae/internal/workload"
)

// Aggregation fast-path experiment: the verified COUNT/SUM/MIN/MAX scalar
// from annotated internal nodes versus the only alternative the protocols
// had before — run a verified range scan and fold the records client-side.
// Both variants end in the same trusted scalar; the fast path replaces the
// O(result) scan, shipping and folding with an O(log n) canonical-cover
// descent and a constant-size response, so both gated quantities are
// WITHIN-RUN ratios (speedup and response-bytes reduction), comparable
// across machines. The numbers land in BENCH_agg.json via saebench
// -figure agg.

// AggConfig parameterizes the run.
type AggConfig struct {
	// N is the dataset cardinality.
	N int
	// Queries is the number of distinct ranges per variant.
	Queries int
	// Iters is how many times the query set is repeated per measurement.
	Iters int
	// Extent is the query-range width as a fraction of the key domain.
	Extent   float64
	Dist     workload.Distribution
	Seed     int64
	Progress func(string)
}

// DefaultAggConfig mirrors the root benchmarks: 100K records with the
// paper's mid selectivity (~1% of the domain per range).
func DefaultAggConfig() AggConfig {
	return AggConfig{
		N:       100_000,
		Queries: 50,
		Iters:   20,
		Extent:  workload.DefaultExtent,
		Dist:    workload.UNF,
		Seed:    1,
	}
}

// AggResult is the machine-readable outcome.
type AggResult struct {
	N          int     `json:"n"`
	Queries    int     `json:"queries"`
	AvgRecords float64 `json:"avgResultRecords"`
	SHANI      bool    `json:"shaNI"`
	GOMAXPROCS int     `json:"gomaxprocs"`

	// SAE: scan-and-fold (SP range scan + TE token + client XOR verify +
	// fold) vs the aggregate fast path (annotated descent + token check).
	ScanQPS        float64 `json:"scanFoldQueriesPerSec"`
	AggQPS         float64 `json:"aggQueriesPerSec"`
	AggSpeedup     float64 `json:"aggSpeedup"`
	ScanRespBytes  float64 `json:"scanRespBytesPerQuery"`
	AggRespBytes   float64 `json:"aggRespBytesPerQuery"`
	RespBytesRatio float64 `json:"respBytesReduction"`

	// TOM: verified scan (records + range VO) vs the aggregate VO.
	TOMScanQPS        float64 `json:"tomScanFoldQueriesPerSec"`
	TOMAggQPS         float64 `json:"tomAggQueriesPerSec"`
	TOMAggSpeedup     float64 `json:"tomAggSpeedup"`
	TOMScanRespBytes  float64 `json:"tomScanRespBytesPerQuery"`
	TOMAggRespBytes   float64 `json:"tomAggRespBytesPerQuery"`
	TOMRespBytesRatio float64 `json:"tomRespBytesReduction"`
}

// RunAgg measures the aggregation fast path against scan-and-fold under
// both protocols.
func RunAgg(cfg AggConfig) (*AggResult, error) {
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}
	ds, err := workload.Generate(cfg.Dist, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	progress(fmt.Sprintf("agg: outsourcing %d records under SAE and TOM", cfg.N))
	sys, err := core.NewSystem(ds.Records)
	if err != nil {
		return nil, err
	}
	tomSys, err := tom.NewSystem(ds.Records)
	if err != nil {
		return nil, err
	}
	qs := workload.Queries(cfg.Queries, cfg.Extent, cfg.Seed+500)

	res := &AggResult{
		N:          cfg.N,
		Queries:    len(qs),
		SHANI:      digest.Accelerated,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	// One correctness pass doubles as the warm-up and gathers the response
	// sizes: the scan ships every covered record (plus, under TOM, the
	// range VO); the fast path ships a 24-byte scalar and a 44-byte token
	// (under TOM one aggregate VO).
	var totalRecs, tomScanBytes, tomAggBytes float64
	for _, q := range qs {
		scan, err := sys.Query(q)
		if err != nil || scan.VerifyErr != nil {
			return nil, fmt.Errorf("experiments: scan %v: %v / %v", q, err, scan.VerifyErr)
		}
		fold := foldRecords(scan.Result, q)
		out, err := sys.Aggregate(q)
		if err != nil || out.VerifyErr != nil {
			return nil, fmt.Errorf("experiments: aggregate %v: %v / %v", q, err, out.VerifyErr)
		}
		if out.Agg != fold {
			return nil, fmt.Errorf("experiments: aggregate %v = %v, scan fold %v", q, out.Agg, fold)
		}
		totalRecs += float64(len(scan.Result))

		tScan, err := tomSys.Query(q)
		if err != nil || tScan.VerifyErr != nil {
			return nil, fmt.Errorf("experiments: TOM scan %v: %v / %v", q, err, tScan.VerifyErr)
		}
		tOut, err := tomSys.Aggregate(q)
		if err != nil || tOut.VerifyErr != nil {
			return nil, fmt.Errorf("experiments: TOM aggregate %v: %v / %v", q, err, tOut.VerifyErr)
		}
		if tOut.Agg != fold {
			return nil, fmt.Errorf("experiments: TOM aggregate %v = %v, scan fold %v", q, tOut.Agg, fold)
		}
		tomScanBytes += float64(len(tScan.Result)*record.Size + tScan.VO.Size())
		tomAggBytes += float64(tOut.VO.Size())
	}
	nq := float64(len(qs))
	res.AvgRecords = totalRecs / nq
	res.ScanRespBytes = res.AvgRecords*record.Size + digest.Size
	res.AggRespBytes = agg.Size + agg.TokenSize
	res.RespBytesRatio = res.ScanRespBytes / res.AggRespBytes
	res.TOMScanRespBytes = tomScanBytes / nq
	res.TOMAggRespBytes = tomAggBytes / nq
	res.TOMRespBytesRatio = res.TOMScanRespBytes / res.TOMAggRespBytes

	// The fast path finishes a query set in single-digit milliseconds, far
	// too short a sample for a stable ratio, so every variant repeats its
	// (Iters x Queries) loop until a minimum wall-clock duration has
	// elapsed — the scan side runs once, the aggregate side accumulates
	// however many rounds fit.
	const minMeasure = 300 * time.Millisecond
	measure := func(fn func(record.Range)) float64 {
		t0 := time.Now()
		ops := 0
		for {
			for i := 0; i < cfg.Iters; i++ {
				for _, q := range qs {
					fn(q)
				}
			}
			ops += cfg.Iters * len(qs)
			if time.Since(t0) >= minMeasure {
				break
			}
		}
		return float64(ops) / time.Since(t0).Seconds()
	}

	progress("agg: measuring SAE scan-and-fold vs aggregate fast path")
	res.ScanQPS = measure(func(q record.Range) {
		out, err := sys.Query(q)
		if err != nil || out.VerifyErr != nil {
			panic(fmt.Sprintf("scan %v: %v / %v", q, err, out.VerifyErr))
		}
		foldRecords(out.Result, q)
	})
	res.AggQPS = measure(func(q record.Range) {
		out, err := sys.Aggregate(q)
		if err != nil || out.VerifyErr != nil {
			panic(fmt.Sprintf("aggregate %v: %v / %v", q, err, out.VerifyErr))
		}
	})
	res.AggSpeedup = res.AggQPS / res.ScanQPS

	progress("agg: measuring TOM scan-and-fold vs aggregate VO")
	res.TOMScanQPS = measure(func(q record.Range) {
		out, err := tomSys.Query(q)
		if err != nil || out.VerifyErr != nil {
			panic(fmt.Sprintf("TOM scan %v: %v / %v", q, err, out.VerifyErr))
		}
		foldRecords(out.Result, q)
	})
	res.TOMAggQPS = measure(func(q record.Range) {
		out, err := tomSys.Aggregate(q)
		if err != nil || out.VerifyErr != nil {
			panic(fmt.Sprintf("TOM aggregate %v: %v / %v", q, err, out.VerifyErr))
		}
	})
	res.TOMAggSpeedup = res.TOMAggQPS / res.TOMScanQPS
	return res, nil
}

// foldRecords is the client-side fold the fast path replaces.
func foldRecords(recs []record.Record, q record.Range) agg.Agg {
	var a agg.Agg
	for i := range recs {
		if q.Contains(recs[i].Key) {
			a = a.Add(recs[i].Key)
		}
	}
	return a.Normalize()
}
