package experiments

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/record"
	"sae/internal/replica"
	"sae/internal/reshard"
	"sae/internal/router"
	"sae/internal/shard"
	"sae/internal/wire"
	"sae/internal/workload"
)

// Reshard experiment: split a hot shard online behind the router while
// verified readers stream through it and a paced group-commit writer
// hammers the very shard being split. Three numbers fall out, and the
// CI gate holds two of them:
//
//   - CutoverPauseMs: the freeze→router-ack window — the only interval
//     a write can observe the reshard. The gate holds it to at most one
//     commit-group interval: all bulk data movement happens while the
//     source still serves, so the pause contains only the straggler
//     drain (one parallel target commit) and two control round trips.
//   - MigratedRelative: routed verified throughput on the successor
//     topology over the pre-split baseline, within-run. The gate holds
//     it to >= 90% — the split must not leave the data slower to serve.
//   - ReadFailures: verified-read errors observed by clients across the
//     whole split. The gate holds it to exactly zero.

// ReshardConfig parameterizes the online-split measurement.
type ReshardConfig struct {
	N      int
	Shards int // pre-split shard count; the last shard is split in two
	// Queries per throughput measurement (baseline and post-split).
	Queries int
	Workers int
	// Extent is the query width as a fraction of the key domain.
	Extent float64
	// Readers is the number of verified clients streaming through the
	// router for the whole life of the split.
	Readers int
	// WriteBatch records are committed as one group every WritePace —
	// the deployment's commit-group cadence, against which the cutover
	// pause is judged.
	WriteBatch int
	WritePace  time.Duration
	Dist       workload.Distribution
	Seed       int64
	Progress   func(string)
}

// DefaultReshardConfig mirrors the replica-tier geometry with a paced
// writer at a 25ms commit-group cadence.
func DefaultReshardConfig() ReshardConfig {
	return ReshardConfig{
		N:          60_000,
		Shards:     2,
		Queries:    300,
		Workers:    8,
		Extent:     0.001,
		Readers:    3,
		WriteBatch: 64,
		WritePace:  25 * time.Millisecond,
		Dist:       workload.UNF,
		Seed:       1,
	}
}

// ReshardResult is the machine-readable BENCH_reshard.json payload.
type ReshardResult struct {
	N          int  `json:"n"`
	Shards     int  `json:"shards"`
	PostShards int  `json:"postShards"`
	Workers    int  `json:"workers"`
	Queries    int  `json:"queries"`
	GOMAXPROCS int  `json:"gomaxprocs"`
	SHANI      bool `json:"shaNI"`
	// BaselineQPS is routed verified-query throughput before the split;
	// MigratedQPS the same workload against the successor topology.
	BaselineQPS float64 `json:"baselineQueriesPerSec"`
	MigratedQPS float64 `json:"migratedQueriesPerSec"`
	// MigratedRelative = MigratedQPS / BaselineQPS, within-run. The CI
	// gate holds it to >= 0.9.
	MigratedRelative float64 `json:"migratedRelative"`
	// CutoverPauseMs is the freeze→router-ack window; the CI gate holds
	// it to at most one commit-group interval.
	CutoverPauseMs float64 `json:"cutoverPauseMs"`
	// CommitGroupIntervalMs is the measured mean time between the
	// writer's group commits during the split — the deployment's commit
	// cadence the pause is judged against.
	CommitGroupIntervalMs float64 `json:"commitGroupIntervalMs"`
	// ReadFailures counts verified-read errors across the split; the CI
	// gate holds it to exactly zero.
	ReadFailures int `json:"readFailures"`
	// ChurnReads is how many verified reads completed during the split
	// (denominator context for ReadFailures).
	ChurnReads int `json:"churnReads"`
	// GroupsStreamed and RecordsMigrated size the online copy.
	GroupsStreamed  int `json:"groupsStreamed"`
	RecordsMigrated int `json:"recordsMigrated"`
}

// RunReshard serves a sharded durable deployment on loopback behind the
// router, splits its hottest shard online under a live verified
// workload, and reports the pause, the throughput ratio and the failure
// count.
func RunReshard(cfg ReshardConfig) (ReshardResult, error) {
	res := ReshardResult{
		N: cfg.N, Shards: cfg.Shards, PostShards: cfg.Shards + 1,
		Workers: cfg.Workers, Queries: cfg.Queries,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SHANI:      digest.Accelerated,
	}
	if cfg.Progress != nil {
		cfg.Progress(fmt.Sprintf("reshard: %d records, %d shards, %d readers + paced writer...",
			cfg.N, cfg.Shards, cfg.Readers))
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

	primAddrs := make([]string, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		dir, err := os.MkdirTemp("", "sae-reshard-bench-*")
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
	rt, err := router.New(router.Config{SPs: primAddrs, TEs: primAddrs})
	if err != nil {
		return res, err
	}
	closers = append(closers, rt)
	if err := rt.Serve("127.0.0.1:0"); err != nil {
		return res, err
	}

	measure := func() (float64, error) {
		vc, err := wire.DialVerified(rt.Addr())
		if err != nil {
			return 0, err
		}
		defer vc.Close()
		qs := workload.Queries(256, cfg.Extent, cfg.Seed+1)
		elapsed, err := driveWire(qs, cfg.Queries, cfg.Workers, func(q record.Range) ([]record.Record, error) {
			recs, _, err := vc.Query(q)
			return recs, err
		})
		if err != nil {
			return 0, err
		}
		return float64(cfg.Queries) / elapsed.Seconds(), nil
	}

	if cfg.Progress != nil {
		cfg.Progress("reshard: measuring pre-split baseline...")
	}
	if res.BaselineQPS, err = measure(); err != nil {
		return res, fmt.Errorf("baseline drive: %w", err)
	}

	// The live workload that spans the split: verified readers through
	// the router (zero tolerance) plus a paced group-commit writer into
	// the shard being split, which stops at the retirement fence.
	sh := cfg.Shards - 1
	span := plan.Span(sh)
	at := (span.Lo + record.KeyDomain) / 2
	next, err := plan.SplitShard(sh, []record.Key{at})
	if err != nil {
		return res, err
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	readerErrs := make([]error, cfg.Readers)
	reads := make([]int, cfg.Readers)
	fails := make([]int, cfg.Readers)
	for w := 0; w < cfg.Readers; w++ {
		bg.Add(1)
		go func(w int) {
			defer bg.Done()
			vc, err := wire.DialVerified(rt.Addr())
			if err != nil {
				readerErrs[w] = err
				fails[w]++
				return
			}
			defer vc.Close()
			qs := workload.Queries(64, cfg.Extent, cfg.Seed+int64(100+w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := vc.Query(qs[i%len(qs)]); err != nil {
					readerErrs[w] = fmt.Errorf("read %d: %w", i, err)
					fails[w]++
					return
				}
				reads[w]++
			}
		}(w)
	}
	var (
		groups     int
		writeStart time.Time
		writeEnd   time.Time
		writerErr  error
	)
	bg.Add(1)
	go func() {
		defer bg.Done()
		wc, err := wire.DialSP(primAddrs[sh])
		if err != nil {
			writerErr = err
			return
		}
		defer wc.Close()
		tick := time.NewTicker(cfg.WritePace)
		defer tick.Stop()
		writeStart = time.Now()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			batch := make([]record.Record, cfg.WriteBatch)
			for j := range batch {
				key := span.Lo + record.Key(uint64(i*cfg.WriteBatch+j)*6151%uint64(record.KeyDomain-span.Lo))
				batch[j] = record.Synthesize(record.ID(1<<41+i*cfg.WriteBatch+j), key)
			}
			if err := wc.InsertBatch(batch); err != nil {
				if strings.Contains(err.Error(), "retired") {
					return // the fence: the shard has been migrated away
				}
				writerErr = err
				return
			}
			groups++
			writeEnd = time.Now()
		}
	}()

	if cfg.Progress != nil {
		cfg.Progress("reshard: splitting the hot shard online...")
	}
	dirs := []string{}
	for j := 0; j < 2; j++ {
		dir, err := os.MkdirTemp("", "sae-reshard-target-*")
		if err != nil {
			close(stop)
			bg.Wait()
			return res, err
		}
		defer os.RemoveAll(dir)
		dirs = append(dirs, dir)
	}
	co, rres, err := reshard.Run(reshard.Config{
		Current:    plan,
		Next:       next,
		FirstShard: sh,
		Replaced:   1,
		Primaries:  primAddrs,
		TargetDirs: dirs,
		Routers:    []string{rt.Addr()},
	})
	if err != nil {
		close(stop)
		bg.Wait()
		return res, fmt.Errorf("online split: %w", err)
	}
	closers = append(closers, co)

	// Let the workload breathe on the successor topology, then stop it.
	time.Sleep(4 * cfg.WritePace)
	close(stop)
	bg.Wait()
	if writerErr != nil {
		return res, fmt.Errorf("paced writer: %w", writerErr)
	}
	for _, n := range reads {
		res.ChurnReads += n
	}
	for w, n := range fails {
		res.ReadFailures += n
		if readerErrs[w] != nil && cfg.Progress != nil {
			cfg.Progress(fmt.Sprintf("reshard: reader %d FAILED: %v", w, readerErrs[w]))
		}
	}
	res.CutoverPauseMs = float64(rres.CutoverPause.Microseconds()) / 1e3
	if groups >= 1 && writeEnd.After(writeStart) {
		res.CommitGroupIntervalMs = float64(writeEnd.Sub(writeStart).Microseconds()) / 1e3 / float64(groups)
	}
	res.GroupsStreamed = rres.GroupsStreamed
	res.RecordsMigrated = rres.RecordsMigrated

	if cfg.Progress != nil {
		cfg.Progress("reshard: measuring post-split throughput...")
	}
	if res.MigratedQPS, err = measure(); err != nil {
		return res, fmt.Errorf("post-split drive: %w", err)
	}
	res.MigratedRelative = res.MigratedQPS / res.BaselineQPS
	return res, nil
}
