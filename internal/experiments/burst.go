package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/wire"
	"sae/internal/workload"
)

// Burst experiment: the serve loop's own numbers. One loopback SP serves
// a small-query workload to pipelining clients — groups of BurstSize
// frames per vectored write, drained per read wakeup, served on per-core
// lanes, one vectored write back per burst — over an in-memory store. The
// sweep re-creates the server at each GOMAXPROCS value so the lane count
// follows, yielding queries/s, ns/record and scaling efficiency per lane
// count. Results land in BENCH_burst.json via saebench -figure burst.

// BurstConfig parameterizes the run.
type BurstConfig struct {
	// N is the dataset cardinality.
	N int
	// ResultRecords is the target records per query. Burst serving exists
	// for small queries — the regime where per-request overhead (frame
	// syscalls, goroutine spawns, per-frame allocations) dominates.
	ResultRecords int
	// BurstSize is the client-side group size per vectored write.
	BurstSize int
	// Conns is the number of client connections per measurement; each
	// maps to one lane at the server and keeps BurstSize frames in flight.
	Conns int
	// Duration is the measured wall-clock per point.
	Duration time.Duration
	Dist     workload.Distribution
	Seed     int64
	Progress func(string)
}

// DefaultBurstConfig mirrors the committed BENCH_burst.json run.
func DefaultBurstConfig() BurstConfig {
	return BurstConfig{
		N:             100_000,
		ResultRecords: 12,
		BurstSize:     32,
		Conns:         2,
		Duration:      1200 * time.Millisecond,
		Dist:          workload.UNF,
		Seed:          1,
	}
}

// BurstLanePoint is one lane-count measurement of the sweep.
type BurstLanePoint struct {
	Lanes      int     `json:"lanes"`
	QPS        float64 `json:"queriesPerSec"`
	NsPerRec   float64 `json:"nsPerRecord"`
	Efficiency float64 `json:"scalingEfficiency"`
}

// BurstResult is the machine-readable outcome.
type BurstResult struct {
	N             int  `json:"n"`
	ResultRecords int  `json:"resultRecordsPerQuery"`
	BurstSize     int  `json:"burstSize"`
	SHANI         bool `json:"shaNI"`
	GOMAXPROCS    int  `json:"gomaxprocs"`

	// Pipelined serving at the run's GOMAXPROCS, in-memory store.
	BurstQPS float64 `json:"burstQueriesPerSec"`

	// Lane sweep (GOMAXPROCS 1 → N; a single-core host records one point).
	Lanes []BurstLanePoint `json:"lanes"`
}

// burstWorkload builds small ranges each holding ~ResultRecords records,
// cycled by the measurement clients.
func burstWorkload(sorted []record.Record, resultRecords, count int, seed int64) []record.Range {
	qs := make([]record.Range, 0, count)
	n := len(sorted)
	step := (n - resultRecords - 1) / count
	if step < 1 {
		step = 1
	}
	for i := 0; i+resultRecords < n && len(qs) < count; i += step {
		qs = append(qs, record.Range{Lo: sorted[i].Key, Hi: sorted[i+resultRecords-1].Key})
	}
	return qs
}

// measureServe drives addr with cfg.Conns pipelining clients for
// cfg.Duration and returns (queries/s, ns served per record).
func measureServe(cfg *BurstConfig, addr string, qs []record.Range) (float64, float64, error) {
	var queries, records atomic.Int64
	var firstErr atomic.Value
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for c := 0; c < cfg.Conns; c++ {
		cl, err := wire.DialSP(addr)
		if err != nil {
			return 0, 0, err
		}
		defer cl.Close()
		wg.Add(1)
		go func(cl *wire.SPClient, i int) {
			defer wg.Done()
			batch := make([]record.Range, cfg.BurstSize)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for j := range batch {
					batch[j] = qs[(i+j)%len(qs)]
				}
				i += cfg.BurstSize
				raws, err := cl.QueryRawMany(context.Background(), batch)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				queries.Add(int64(len(raws)))
				for _, raw := range raws {
					records.Add(int64((len(raw) - 4) / record.Size))
				}
			}
		}(cl, c*7919)
	}
	// Warm-up, then reset counters for the measured window.
	time.Sleep(cfg.Duration / 4)
	queries.Store(0)
	records.Store(0)
	t0 := time.Now()
	time.Sleep(cfg.Duration)
	q, r := queries.Load(), records.Load()
	elapsed := time.Since(t0)
	close(stop)
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return 0, 0, err
	}
	if q == 0 {
		return 0, 0, fmt.Errorf("experiments: no queries completed")
	}
	qps := float64(q) / elapsed.Seconds()
	nsPerRec := float64(elapsed.Nanoseconds()) / float64(r)
	return qps, nsPerRec, nil
}

// RunBurst measures the burst serve loop end to end.
func RunBurst(cfg BurstConfig) (*BurstResult, error) {
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}
	ds, err := workload.Generate(cfg.Dist, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	progress(fmt.Sprintf("burst: outsourcing %d records", cfg.N))
	sp := core.NewServiceProvider(pagestore.NewMem())
	if err := sp.Load(ds.Records); err != nil {
		return nil, err
	}
	sorted, _, err := sp.Query(record.Range{Lo: 0, Hi: record.KeyDomain - 1})
	if err != nil {
		return nil, err
	}
	qs := burstWorkload(sorted, cfg.ResultRecords, 1024, cfg.Seed)

	res := &BurstResult{
		N:             cfg.N,
		ResultRecords: cfg.ResultRecords,
		BurstSize:     cfg.BurstSize,
		SHANI:         digest.Accelerated,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
	}

	serve := func(cfg *BurstConfig) (float64, float64, error) {
		srv, err := wire.ServeSP("127.0.0.1:0", sp, nil)
		if err != nil {
			return 0, 0, err
		}
		defer srv.Close()
		return measureServe(cfg, srv.Addr(), qs)
	}

	progress("burst: measuring pipelined serving")
	res.BurstQPS, _, err = serve(&cfg)
	if err != nil {
		return nil, err
	}

	// Lane sweep: lanes follow GOMAXPROCS at server creation.
	maxProcs := runtime.GOMAXPROCS(0)
	laneCounts := []int{1}
	for k := 2; k <= maxProcs; k *= 2 {
		laneCounts = append(laneCounts, k)
	}
	if last := laneCounts[len(laneCounts)-1]; last != maxProcs {
		laneCounts = append(laneCounts, maxProcs)
	}
	var qps1 float64
	for _, k := range laneCounts {
		progress(fmt.Sprintf("burst: lane sweep at %d lanes", k))
		prev := runtime.GOMAXPROCS(k)
		laneCfg := cfg
		laneCfg.Conns = 2 * k
		qps, nsRec, err := serve(&laneCfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, err
		}
		if k == 1 {
			qps1 = qps
		}
		eff := 1.0
		if qps1 > 0 {
			eff = qps / (float64(k) * qps1)
		}
		res.Lanes = append(res.Lanes, BurstLanePoint{Lanes: k, QPS: qps, NsPerRec: nsRec, Efficiency: eff})
	}
	return res, nil
}
