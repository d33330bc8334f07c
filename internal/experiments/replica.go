package experiments

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/record"
	"sae/internal/replica"
	"sae/internal/router"
	"sae/internal/shard"
	"sae/internal/wire"
	"sae/internal/workload"
)

// Replica-tier experiment: the same sharded deployment served over real
// loopback TCP through the router, measured two ways — primaries alone
// versus primaries plus read replicas in every shard's endpoint set.
// Both paths verify every result (replicas answer bit-identically at
// the same generation stamp, so the client's XOR check needs no new
// trust); the within-run throughput ratio prices the replica
// indirection and is what the CI gate holds to >= 90%.

// ReplicaConfig parameterizes the replica-tier measurement.
type ReplicaConfig struct {
	N      int
	Shards int
	// ReplicasPerShard read replicas are bootstrapped from each shard's
	// primary and join its routed endpoint set.
	ReplicasPerShard int
	Queries          int
	// Workers is the number of concurrent client goroutines; requests
	// pipeline over shared connections on both paths.
	Workers int
	// Extent is the query width as a fraction of the key domain.
	Extent   float64
	Dist     workload.Distribution
	Seed     int64
	Progress func(string)
}

// DefaultReplicaConfig mirrors the router-overhead geometry with two
// replicas per shard — the deployment shape the chaos smoke runs.
func DefaultReplicaConfig() ReplicaConfig {
	return ReplicaConfig{
		N:                100_000,
		Shards:           2,
		ReplicasPerShard: 2,
		Queries:          400,
		Workers:          8,
		Extent:           0.001,
		Dist:             workload.UNF,
		Seed:             1,
	}
}

// ReplicaResult is the machine-readable BENCH_replica.json payload.
type ReplicaResult struct {
	N                int  `json:"n"`
	Shards           int  `json:"shards"`
	ReplicasPerShard int  `json:"replicasPerShard"`
	Workers          int  `json:"workers"`
	Queries          int  `json:"queries"`
	GOMAXPROCS       int  `json:"gomaxprocs"`
	SHANI            bool `json:"shaNI"`
	// BaselineQPS is routed verified-query throughput against the
	// primaries alone; ReplicatedQPS the same workload with every
	// shard's replicas in the endpoint set.
	BaselineQPS   float64 `json:"baselineQueriesPerSec"`
	ReplicatedQPS float64 `json:"replicatedQueriesPerSec"`
	// ReplicatedRelative = ReplicatedQPS / BaselineQPS: the fraction of
	// primary-only throughput that survives spreading reads across the
	// replica set. Within-run, so comparable across machines; the CI
	// gate holds it to >= 0.9.
	ReplicatedRelative float64 `json:"replicatedRelative"`
	// Failovers counts router failovers during the replicated run — a
	// healthy run has none; nonzero means the measurement absorbed
	// retries and understates the steady state.
	Failovers uint64 `json:"failovers"`
}

// RunReplica serves a replicated sharded deployment on loopback and
// measures routed verified-query throughput with and without the
// replica tier.
func RunReplica(cfg ReplicaConfig) (ReplicaResult, error) {
	res := ReplicaResult{
		N: cfg.N, Shards: cfg.Shards, ReplicasPerShard: cfg.ReplicasPerShard,
		Workers: cfg.Workers, Queries: cfg.Queries,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SHANI:      digest.Accelerated,
	}
	if cfg.Progress != nil {
		cfg.Progress(fmt.Sprintf("replica tier: %d records, %d shards x %d replicas, %d workers...",
			cfg.N, cfg.Shards, cfg.ReplicasPerShard, cfg.Workers))
	}
	ds, err := workload.Generate(cfg.Dist, cfg.N, cfg.Seed)
	if err != nil {
		return res, err
	}
	plan := shard.PlanFor(ds.Records, cfg.Shards)
	parts := plan.Partition(ds.Records)

	var closers []interface{ Close() error }
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i].Close()
		}
	}()

	// One durable primary per shard: writes, generation stamps and the
	// replication feed on one address.
	primAddrs := make([]string, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		dir, err := os.MkdirTemp("", "sae-replica-bench-*")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		sys, err := core.OpenDurableSystem(dir, parts[i], 0)
		if err != nil {
			return res, err
		}
		closers = append(closers, sys)
		hub := replica.Attach(sys, 0)
		psrv, err := wire.ServePrimary("127.0.0.1:0", sys, hub, nil,
			wire.WithShardInfo(wire.ShardInfo{Index: i, Plan: plan}))
		if err != nil {
			return res, err
		}
		closers = append(closers, psrv)
		primAddrs[i] = psrv.Addr()
	}

	// Replicas bootstrap from their primary over the wire, exactly as
	// the saenet replica role does.
	replicaAddrs := make([][]string, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		for j := 0; j < cfg.ReplicasPerShard; j++ {
			rep, info, err := wire.BootstrapReplica(primAddrs[i])
			if err != nil {
				return res, fmt.Errorf("bootstrap shard %d replica %d: %w", i, j, err)
			}
			rsrv, err := wire.ServeReplica("127.0.0.1:0", rep, nil, wire.WithShardInfo(info))
			if err != nil {
				return res, err
			}
			closers = append(closers, rsrv)
			replicaAddrs[i] = append(replicaAddrs[i], rsrv.Addr())
		}
	}

	measure := func(replicas [][]string) (float64, uint64, error) {
		rt, err := router.New(router.Config{
			SPs: primAddrs, TEs: primAddrs, Replicas: replicas,
		})
		if err != nil {
			return 0, 0, err
		}
		defer rt.Close()
		if err := rt.Serve("127.0.0.1:0"); err != nil {
			return 0, 0, err
		}
		vc, err := wire.DialVerified(rt.Addr())
		if err != nil {
			return 0, 0, err
		}
		defer vc.Close()
		qs := workload.Queries(256, cfg.Extent, cfg.Seed+1)
		elapsed, err := driveWire(qs, cfg.Queries, cfg.Workers, func(q record.Range) ([]record.Record, error) {
			recs, _, err := vc.Query(q)
			return recs, err
		})
		if err != nil {
			return 0, 0, err
		}
		return float64(cfg.Queries) / elapsed.Seconds(), rt.Counters().Failovers, nil
	}

	if cfg.Progress != nil {
		cfg.Progress("replica tier: measuring primaries-only baseline...")
	}
	if res.BaselineQPS, _, err = measure(nil); err != nil {
		return res, fmt.Errorf("baseline drive: %w", err)
	}
	if cfg.Progress != nil {
		cfg.Progress("replica tier: measuring with replicas in every endpoint set...")
	}
	if res.ReplicatedQPS, res.Failovers, err = measure(replicaAddrs); err != nil {
		return res, fmt.Errorf("replicated drive: %w", err)
	}
	res.ReplicatedRelative = res.ReplicatedQPS / res.BaselineQPS
	return res, nil
}

// driveWire runs count verified queries (cycled from qs) from `workers`
// concurrent goroutines over one shared (pipelining) client, after a
// short warmup.
func driveWire(qs []record.Range, count, workers int, query func(record.Range) ([]record.Record, error)) (time.Duration, error) {
	if workers < 1 {
		workers = 1
	}
	for i := 0; i < min(32, len(qs)); i++ { // warm caches and conns
		if _, err := query(qs[i]); err != nil {
			return 0, err
		}
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		firstE error
	)
	next := make(chan int)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if _, err := query(qs[i%len(qs)]); err != nil {
					mu.Lock()
					if firstE == nil {
						firstE = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < count; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return time.Since(start), firstE
}
