package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/workload"
)

// Shard-scaling experiment: aggregate verified-query throughput of a
// sharded SAE deployment as the shard count grows, under the paper's
// simulated I/O model. Each shard owns one simulated disk that serves one
// node access at a time (the per-access charge, scaled down to keep runs
// fast); sharding multiplies the deployment's aggregate I/O bandwidth, so
// throughput should scale near-linearly until queries start spanning
// multiple shards or the workload skews onto one partition.

// ShardConfig parameterizes the scaling run.
type ShardConfig struct {
	// N is the total dataset cardinality, split across the shards.
	N int
	// ShardCounts are the deployment sizes to sweep.
	ShardCounts []int
	// Queries per deployment size.
	Queries int
	// Workers is the number of concurrent clients driving each deployment.
	Workers int
	// PerAccess is the simulated I/O charge per node access at each
	// shard's disk (the paper's 10 ms, scaled down).
	PerAccess time.Duration
	// Extent is the query width as a fraction of the key domain.
	Extent   float64
	Dist     workload.Distribution
	Seed     int64
	Progress func(string)
}

// DefaultShardConfig mirrors the root BenchmarkShardedQueries geometry.
// The per-access charge is the paper's 10 ms scaled ~67x down and the
// extent narrowed to 0.1%, which keeps each query's simulated I/O an
// order of magnitude above its real CPU (hashing + record copies) — the
// disk-bound regime where sharding's extra spindles are the payoff — while
// a full sweep still finishes in seconds. Workers comfortably exceed the
// largest deployment so every disk stays busy.
func DefaultShardConfig() ShardConfig {
	return ShardConfig{
		N:           100_000,
		ShardCounts: []int{1, 2, 4, 8},
		Queries:     600,
		Workers:     32,
		PerAccess:   150 * time.Microsecond,
		Extent:      0.001,
		Dist:        workload.UNF,
		Seed:        1,
	}
}

// ShardCell is one deployment size's measurement.
type ShardCell struct {
	Shards        int     `json:"shards"`
	Queries       int     `json:"queries"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	// Speedup is relative to the 1-shard deployment in the same run.
	Speedup float64 `json:"speedup"`
	// AvgShardsTouched is the mean number of shards a query scattered to.
	AvgShardsTouched float64 `json:"avg_shards_touched"`
}

// ShardResult is the machine-readable BENCH_shard.json payload.
type ShardResult struct {
	Benchmark string      `json:"benchmark"`
	Unit      string      `json:"unit"`
	Results   []ShardCell `json:"results"`
}

// SimDisks models one serial disk per shard as a virtual-time FIFO
// queue: each sub-request atomically reserves the disk's next-free
// interval and sleeps until its reservation ends. Different shards' disks
// run in parallel; one shard's requests serialize in virtual time — the
// aggregate service rate is exactly one access per PerAccess per disk,
// with none of the wake-up convoy a sleep-under-mutex model suffers at
// high worker counts.
type SimDisks struct {
	next []atomic.Int64 // per-disk next-free time, ns since start
	base time.Time
}

// NewSimDisks returns one virtual-time disk per shard.
func NewSimDisks(shards int) *SimDisks {
	return &SimDisks{next: make([]atomic.Int64, shards), base: time.Now()}
}

// Stall charges one shard's disk for d and waits until the reserved
// interval has passed.
func (s *SimDisks) Stall(shard int, d time.Duration) {
	if d <= 0 {
		return
	}
	for {
		now := int64(time.Since(s.base))
		cur := s.next[shard].Load()
		start := cur
		if now > start {
			start = now // disk was idle: service begins immediately
		}
		end := start + int64(d)
		if s.next[shard].CompareAndSwap(cur, end) {
			time.Sleep(time.Duration(end - now))
			return
		}
	}
}

// driveSharded runs queries against a sharded system from `workers`
// concurrent clients, charging every shard's accesses to that shard's
// simulated disk. It returns the elapsed wall time and the total number
// of shard touches.
func driveSharded(sys *core.ShardedSystem, disks *SimDisks, qs []record.Range, workers int, perAccess time.Duration) (time.Duration, int64, error) {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstE  error
		touches int64
	)
	next := make(chan int)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var localTouches int64
			for i := range next {
				out, err := sys.Query(qs[i%len(qs)])
				if err == nil && out.VerifyErr != nil {
					err = out.VerifyErr
				}
				if err != nil {
					mu.Lock()
					if firstE == nil {
						firstE = err
					}
					mu.Unlock()
					continue
				}
				// Pay each shard's I/O at that shard's disk. Different
				// shards stall in parallel across workers; the same shard
				// serializes — exactly what an N-disk deployment buys.
				for _, pc := range out.PerShard {
					accesses := pc.SPCost.Total().Accesses + pc.TECost.Accesses
					disks.Stall(pc.Shard, time.Duration(accesses)*perAccess)
					localTouches++
				}
			}
			mu.Lock()
			touches += localTouches
			mu.Unlock()
		}()
	}
	for i := 0; i < len(qs); i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return time.Since(start), touches, firstE
}

// RunShardScaling builds one sharded deployment per shard count over the
// same dataset and measures aggregate verified-query throughput under the
// simulated per-shard disks.
func RunShardScaling(cfg ShardConfig) (*ShardResult, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	ds, err := workload.Generate(cfg.Dist, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.Extent <= 0 {
		cfg.Extent = workload.DefaultExtent
	}
	qs := workload.Queries(256, cfg.Extent, cfg.Seed+1)
	res := &ShardResult{Benchmark: "sharded_queries", Unit: "queries_per_sec"}
	var base float64
	for _, shards := range cfg.ShardCounts {
		if cfg.Progress != nil {
			cfg.Progress(fmt.Sprintf("shard scaling: %d shards over %d records...", shards, cfg.N))
		}
		sys, err := core.NewShardedSystem(ds.Records, shards)
		if err != nil {
			return nil, err
		}
		disks := NewSimDisks(sys.Plan.Shards())
		// Warm once so first-touch cache fills don't skew the smallest run.
		if _, _, err := driveSharded(sys, disks, qs[:min(64, len(qs))], cfg.Workers, 0); err != nil {
			return nil, err
		}
		elapsed, touches, err := DriveSharded(sys, disks, qs, cfg.Queries, cfg.Workers, cfg.PerAccess)
		if err != nil {
			return nil, err
		}
		qps := float64(cfg.Queries) / elapsed.Seconds()
		cell := ShardCell{
			Shards:           shards,
			Queries:          cfg.Queries,
			ElapsedMS:        float64(elapsed.Milliseconds()),
			QueriesPerSec:    qps,
			AvgShardsTouched: float64(touches) / float64(cfg.Queries),
		}
		if base == 0 {
			base = qps
		}
		cell.Speedup = qps / base
		res.Results = append(res.Results, cell)
	}
	return res, nil
}

// DriveSharded runs `count` verified queries (cycled from qs) against a
// sharded system from `workers` concurrent clients, charging every
// shard's node accesses to that shard's simulated disk. It returns the
// elapsed wall time and the total number of shard touches. Shared by
// RunShardScaling and the root BenchmarkShardedQueries so the benchmark
// and BENCH_shard.json measure exactly the same thing.
func DriveSharded(sys *core.ShardedSystem, disks *SimDisks, qs []record.Range, count, workers int, perAccess time.Duration) (time.Duration, int64, error) {
	repeated := make([]record.Range, count)
	for i := range repeated {
		repeated[i] = qs[i%len(qs)]
	}
	return driveSharded(sys, disks, repeated, workers, perAccess)
}
