// Command saebench regenerates the paper's evaluation figures (5-8). It
// sweeps dataset cardinalities and distributions, outsources each dataset
// under both SAE and TOM, runs the paper's query workload and prints one
// table per figure.
//
// Usage:
//
//	saebench                     # quick scale, all figures
//	saebench -scale paper        # the paper's full 100K..1M grid (~GBs of RAM)
//	saebench -figure 6           # a single figure
//	saebench -n 50000,200000     # custom cardinalities
//	saebench -csv                # machine-readable output
//
// Beyond the paper's figures, -figure shard measures aggregate verified
// throughput of the sharded deployment as the shard count grows (one
// simulated disk per shard) and writes the machine-readable result to
// -shardjson (BENCH_shard.json by default):
//
//	saebench -figure shard                   # 1,2,4,8 shards
//	saebench -figure shard -shards 1,4,16    # custom deployment sizes
//
// -figure router prices the router tier's extra hop: the same loopback
// deployment queried by a client-side scatter versus a plain client
// behind the router (BENCH_router.json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"sae/internal/experiments"
)

func main() {
	var (
		figure     = flag.String("figure", "all", "figure to regenerate: 5, 6, 7, 8, rt (response time), updates, shard, fastpath, router, burst, write, agg, replica, reshard or all")
		scale      = flag.String("scale", "quick", "sweep scale: quick or paper")
		ns         = flag.String("n", "", "comma-separated cardinalities overriding the scale")
		queries    = flag.Int("queries", 0, "queries per grid point (0 = scale default)")
		seed       = flag.Int64("seed", 1, "workload seed")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		shards     = flag.String("shards", "1,2,4,8", "comma-separated shard counts (-figure shard)")
		shardJSON  = flag.String("shardjson", "BENCH_shard.json", "output path for the shard-scaling JSON (-figure shard)")
		fastJSON   = flag.String("fastjson", "BENCH_fastpath.json", "output path for the fast-path JSON (-figure fastpath)")
		routerJSON = flag.String("routerjson", "BENCH_router.json", "output path for the router-overhead JSON (-figure router)")
		fastIters  = flag.Int("fastiters", 0, "iterations per fast-path variant (0 = default)")
		burstJSON  = flag.String("burstjson", "BENCH_burst.json", "output path for the burst-serving JSON (-figure burst)")
		burstMs    = flag.Int("burstms", 0, "measured milliseconds per burst point (0 = default)")
		writeJSON  = flag.String("writejson", "BENCH_write.json", "output path for the write-pipeline JSON (-figure write)")
		writers    = flag.Int("writers", 0, "concurrent writers for the grouped measurement (0 = default)")
		aggJSON    = flag.String("aggjson", "BENCH_agg.json", "output path for the aggregation fast-path JSON (-figure agg)")
		aggIters   = flag.Int("aggiters", 0, "query-set repetitions per aggregation variant (0 = default)")
		replJSON   = flag.String("replicajson", "BENCH_replica.json", "output path for the replica-tier JSON (-figure replica)")
		reshJSON   = flag.String("reshardjson", "BENCH_reshard.json", "output path for the online-reshard JSON (-figure reshard)")
	)
	flag.Parse()

	if *figure == "shard" {
		runShardFigure(*shards, *shardJSON, *queries, *seed, *quiet)
		return
	}
	if *figure == "fastpath" {
		runFastpathFigure(*fastJSON, *fastIters, *seed, *quiet)
		return
	}
	if *figure == "router" {
		runRouterFigure(*routerJSON, *queries, *seed, *quiet)
		return
	}
	if *figure == "burst" {
		runBurstFigure(*burstJSON, *burstMs, *seed, *quiet)
		return
	}
	if *figure == "write" {
		runWriteFigure(*writeJSON, *writers, *seed, *quiet)
		return
	}
	if *figure == "agg" {
		runAggFigure(*aggJSON, *aggIters, *queries, *seed, *quiet)
		return
	}
	if *figure == "replica" {
		runReplicaFigure(*replJSON, *queries, *seed, *quiet)
		return
	}
	if *figure == "reshard" {
		runReshardFigure(*reshJSON, *queries, *seed, *quiet)
		return
	}

	var cfg experiments.Config
	switch *scale {
	case "quick":
		cfg = experiments.QuickScale()
	case "paper":
		cfg = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "saebench: unknown scale %q (want quick or paper)\n", *scale)
		os.Exit(2)
	}
	if *ns != "" {
		cfg.Cardinalities = nil
		for _, part := range strings.Split(*ns, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "saebench: bad cardinality %q\n", part)
				os.Exit(2)
			}
			cfg.Cardinalities = append(cfg.Cardinalities, n)
		}
	}
	if *queries > 0 {
		cfg.NumQueries = *queries
	}
	cfg.Seed = *seed
	if !*quiet {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	cells, err := experiments.Sweep(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}

	var tables []*experiments.Table
	switch *figure {
	case "5":
		tables = append(tables, experiments.BuildFig5(cells))
	case "6":
		tables = append(tables, experiments.BuildFig6(cells))
	case "7":
		tables = append(tables, experiments.BuildFig7(cells))
	case "8":
		tables = append(tables, experiments.BuildFig8(cells))
	case "rt":
		tables = append(tables, experiments.BuildResponseTime(cells, experiments.DefaultNetwork))
	case "updates":
		ucells, err := experiments.RunUpdates(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
			os.Exit(1)
		}
		tables = append(tables, experiments.BuildUpdates(ucells))
	case "all":
		tables = experiments.BuildAll(cells)
		tables = append(tables, experiments.BuildResponseTime(cells, experiments.DefaultNetwork))
	default:
		fmt.Fprintf(os.Stderr, "saebench: unknown figure %q\n", *figure)
		os.Exit(2)
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		if *csv {
			fmt.Printf("# %s\n%s", t.Title, t.CSV())
		} else {
			fmt.Print(t.Format())
		}
	}
}

// runFastpathFigure measures the zero-copy serve/verify chain against the
// seed pipeline and writes BENCH_fastpath.json alongside a table.
func runFastpathFigure(jsonPath string, iters int, seed int64, quiet bool) {
	cfg := experiments.DefaultFastpathConfig()
	cfg.Seed = seed
	if iters > 0 {
		cfg.Iters = iters
	}
	if !quiet {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	res, err := experiments.RunFastpath(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("Fast path (n=%d, %d-record results, SHA-NI=%v, GOMAXPROCS=%d)\n",
		res.N, res.ResultRecords, res.SHANI, res.GOMAXPROCS)
	fmt.Printf("  client verify: seed %6.0f ns/record  fast %6.0f ns/record  (%.2fx)\n",
		res.VerifySeedNsPerRec, res.VerifyFastNsPerRec, res.VerifySpeedup)
	for _, p := range res.VerifyWorkers {
		fmt.Printf("    %d workers: %6.0f ns/record  (%.2fM records/s)\n", p.Workers, p.NsPerRec, p.RecordsSec/1e6)
	}
	fmt.Printf("  SP serve: seed %6.0f q/s (%.0f allocs, %.0f B/op)  fast %6.0f q/s (%.0f allocs, %.0f B/op)\n",
		res.ServeSeedQPS, res.ServeSeedAllocsOp, res.ServeSeedBytesOp,
		res.ServeFastQPS, res.ServeFastAllocsOp, res.ServeFastBytesOp)
	fmt.Printf("  serve alloc reduction: %.0fx, serve speedup: %.2fx\n", res.AllocReduction, res.ServeSpeedup)
	f, err := os.Create(jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := experiments.WriteFastpathJSON(f, res); err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "saebench: wrote %s\n", jsonPath)
	}
}

// runBurstFigure measures the serve loop under pipelined load — the
// GOMAXPROCS lane sweep and the file-backed pread/mmap read paths — and
// writes BENCH_burst.json alongside a summary.
func runBurstFigure(jsonPath string, burstMs int, seed int64, quiet bool) {
	cfg := experiments.DefaultBurstConfig()
	cfg.Seed = seed
	if burstMs > 0 {
		cfg.Duration = time.Duration(burstMs) * time.Millisecond
	}
	if !quiet {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	res, err := experiments.RunBurst(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("Burst serving (n=%d, %d-record queries, burst=%d, SHA-NI=%v, GOMAXPROCS=%d)\n",
		res.N, res.ResultRecords, res.BurstSize, res.SHANI, res.GOMAXPROCS)
	fmt.Printf("  pipelined serving:   %8.0f queries/s\n", res.BurstQPS)
	fmt.Printf("  lane sweep:\n")
	for _, p := range res.Lanes {
		fmt.Printf("    %2d lanes: %8.0f queries/s  %6.0f ns/record  efficiency %.2f\n",
			p.Lanes, p.QPS, p.NsPerRec, p.Efficiency)
	}
	fmt.Printf("  file-backed (pread): %8.0f queries/s\n", res.FilePreadQPS)
	fmt.Printf("  file-backed (mmap):  %8.0f queries/s  (mmap active: %v)\n", res.FileMmapQPS, res.MmapActive)
	f, err := os.Create(jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := experiments.WriteBurstJSON(f, res); err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "saebench: wrote %s\n", jsonPath)
	}
}

// runWriteFigure measures the group-commit write pipeline — serial
// durable commits vs coalesced groups, the GOMAXPROCS sweep and the TOM
// sign-amortization pair — and writes BENCH_write.json alongside a
// summary.
func runWriteFigure(jsonPath string, writers int, seed int64, quiet bool) {
	cfg := experiments.DefaultWriteConfig()
	cfg.Seed = seed
	if writers > 0 {
		cfg.Writers = writers
	}
	if !quiet {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	res, err := experiments.RunWrite(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("Group-commit write pipeline (n=%d, %d writers, maxGroup=%d, SHA-NI=%v, GOMAXPROCS=%d)\n",
		res.N, res.Writers, res.MaxGroup, res.SHANI, res.GOMAXPROCS)
	fmt.Printf("  serial durable:  %8.0f updates/s  (%d fsyncs)\n", res.SerialUpdatesPerSec, res.SerialSyncs)
	fmt.Printf("  group commit:    %8.0f updates/s  (%d fsyncs, avg group %.1f, win %.2fx)\n",
		res.GroupUpdatesPerSec, res.GroupSyncs, res.AvgGroupSize, res.GroupCommitWin)
	fmt.Printf("  procs sweep:\n")
	for _, p := range res.Procs {
		fmt.Printf("    %2d procs: %8.0f updates/s  avg group %.1f\n", p.Procs, p.UpdatesPerSec, p.AvgGroup)
	}
	fmt.Printf("  TOM re-sign: per-update %6.0f updates/s  per-group(%d) %6.0f updates/s  (%.2fx)\n",
		res.TOMSerialUpdatesPerSec, res.TOMBatch, res.TOMBatchUpdatesPerSec, res.SignAmortWin)
	f, err := os.Create(jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := experiments.WriteWriteJSON(f, res); err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "saebench: wrote %s\n", jsonPath)
	}
}

// runAggFigure measures the verified-aggregation fast path against
// scan-and-fold under both protocols and writes BENCH_agg.json alongside
// a summary.
func runAggFigure(jsonPath string, iters, queries int, seed int64, quiet bool) {
	cfg := experiments.DefaultAggConfig()
	cfg.Seed = seed
	if iters > 0 {
		cfg.Iters = iters
	}
	if queries > 0 {
		cfg.Queries = queries
	}
	if !quiet {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	res, err := experiments.RunAgg(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("Verified aggregation fast path (n=%d, %d queries, avg %.0f records/range, SHA-NI=%v, GOMAXPROCS=%d)\n",
		res.N, res.Queries, res.AvgRecords, res.SHANI, res.GOMAXPROCS)
	fmt.Printf("  SAE scan-and-fold: %8.0f q/s  %8.0f resp B/query\n", res.ScanQPS, res.ScanRespBytes)
	fmt.Printf("  SAE aggregate:     %8.0f q/s  %8.0f resp B/query  (speedup %.1fx, bytes %.0fx)\n",
		res.AggQPS, res.AggRespBytes, res.AggSpeedup, res.RespBytesRatio)
	fmt.Printf("  TOM scan-and-fold: %8.0f q/s  %8.0f resp B/query\n", res.TOMScanQPS, res.TOMScanRespBytes)
	fmt.Printf("  TOM aggregate VO:  %8.0f q/s  %8.0f resp B/query  (speedup %.1fx, bytes %.0fx)\n",
		res.TOMAggQPS, res.TOMAggRespBytes, res.TOMAggSpeedup, res.TOMRespBytesRatio)
	f, err := os.Create(jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := experiments.WriteAggJSON(f, res); err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "saebench: wrote %s\n", jsonPath)
	}
}

// runRouterFigure measures the router tier's hop overhead and writes
// the machine-readable BENCH_router.json alongside a summary.
func runRouterFigure(jsonPath string, queries int, seed int64, quiet bool) {
	cfg := experiments.DefaultRouterConfig()
	cfg.Seed = seed
	if queries > 0 {
		cfg.Queries = queries
	}
	if !quiet {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	res, err := experiments.RunRouterOverhead(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("Router-hop overhead (n=%d, %d shards, %d workers, GOMAXPROCS=%d)\n",
		res.N, res.Shards, res.Workers, res.GOMAXPROCS)
	fmt.Printf("  direct client-side scatter: %8.0f queries/s\n", res.DirectQPS)
	fmt.Printf("  plain client via router:    %8.0f queries/s (%.0f%% of direct)\n",
		res.RoutedQPS, 100*res.RoutedRelative)
	f, err := os.Create(jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := experiments.WriteRouterJSON(f, res); err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "saebench: wrote %s\n", jsonPath)
	}
}

// runReplicaFigure measures the replica tier's routed throughput
// against the primaries-only baseline and writes the machine-readable
// BENCH_replica.json alongside a summary.
func runReplicaFigure(jsonPath string, queries int, seed int64, quiet bool) {
	cfg := experiments.DefaultReplicaConfig()
	cfg.Seed = seed
	if queries > 0 {
		cfg.Queries = queries
	}
	if !quiet {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	res, err := experiments.RunReplica(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("Replica tier (n=%d, %d shards x %d replicas, %d workers, GOMAXPROCS=%d)\n",
		res.N, res.Shards, res.ReplicasPerShard, res.Workers, res.GOMAXPROCS)
	fmt.Printf("  routed, primaries only:     %8.0f queries/s\n", res.BaselineQPS)
	fmt.Printf("  routed, with replica sets:  %8.0f queries/s (%.0f%% of baseline, %d failovers)\n",
		res.ReplicatedQPS, 100*res.ReplicatedRelative, res.Failovers)
	f, err := os.Create(jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := experiments.WriteReplicaJSON(f, res); err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "saebench: wrote %s\n", jsonPath)
	}
}

// runReshardFigure splits a hot shard online behind the router under a
// live verified workload and writes the machine-readable
// BENCH_reshard.json alongside a summary.
func runReshardFigure(jsonPath string, queries int, seed int64, quiet bool) {
	cfg := experiments.DefaultReshardConfig()
	cfg.Seed = seed
	if queries > 0 {
		cfg.Queries = queries
	}
	if !quiet {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	res, err := experiments.RunReshard(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("Online reshard (n=%d, %d -> %d shards, %d workers, GOMAXPROCS=%d)\n",
		res.N, res.Shards, res.PostShards, res.Workers, res.GOMAXPROCS)
	fmt.Printf("  routed, pre-split:   %8.0f queries/s\n", res.BaselineQPS)
	fmt.Printf("  routed, post-split:  %8.0f queries/s (%.0f%% of baseline)\n",
		res.MigratedQPS, 100*res.MigratedRelative)
	fmt.Printf("  cutover pause:       %8.2f ms (commit-group interval %.2f ms)\n",
		res.CutoverPauseMs, res.CommitGroupIntervalMs)
	fmt.Printf("  during the split:    %d verified reads, %d failures, %d groups streamed, %d records migrated\n",
		res.ChurnReads, res.ReadFailures, res.GroupsStreamed, res.RecordsMigrated)
	f, err := os.Create(jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := experiments.WriteReshardJSON(f, res); err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "saebench: wrote %s\n", jsonPath)
	}
}

// runShardFigure measures sharded throughput scaling and writes the
// machine-readable BENCH_shard.json alongside a human-readable table.
func runShardFigure(shardsCSV, jsonPath string, queries int, seed int64, quiet bool) {
	cfg := experiments.DefaultShardConfig()
	cfg.Seed = seed
	if queries > 0 {
		cfg.Queries = queries
	}
	if !quiet {
		cfg.Progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}
	cfg.ShardCounts = nil
	for _, part := range strings.Split(shardsCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "saebench: bad shard count %q\n", part)
			os.Exit(2)
		}
		cfg.ShardCounts = append(cfg.ShardCounts, n)
	}
	cells, err := experiments.RunShardScaling(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("Sharded verified-query throughput (n=%d, %d workers, %v/access simulated disks)\n",
		cfg.N, cfg.Workers, cfg.PerAccess)
	fmt.Printf("%8s %12s %10s %16s\n", "shards", "queries/s", "speedup", "shards/query")
	for _, c := range cells {
		fmt.Printf("%8d %12.0f %9.2fx %16.2f\n", c.Shards, c.QueriesPerSec, c.Speedup, c.AvgShardsTouched)
	}
	f, err := os.Create(jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := experiments.WriteShardJSON(f, cells); err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "saebench: wrote %s\n", jsonPath)
	}
}
