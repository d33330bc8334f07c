package experiments

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/tom"
	"sae/internal/wal"
	"sae/internal/workload"
)

// Write experiment: the group-commit pipeline's numbers. A durable SAE
// deployment (checkpoint + WAL on the real filesystem) commits the same
// update load two ways — serially, one fsync and one two-party apply
// per update, and through the group committer, which coalesces
// concurrent writers into groups that pay ONE fsync, ONE lock pass per
// party and ONE digest dispatch each. The headline pair runs at
// GOMAXPROCS=1: group commit is a latency-amortization win, not a
// parallelism win, so it must show up on a single core. A procs sweep
// records how the grouped path scales when cores are added, and a TOM
// section prices the comparison system's per-update root re-sign
// against the batched one-sign-per-group path. Results land in
// BENCH_write.json via saebench -figure write.

// WriteConfig parameterizes the run.
type WriteConfig struct {
	// N is the seed dataset cardinality.
	N int
	// SerialUpdates is how many one-at-a-time durable commits the serial
	// baseline measures.
	SerialUpdates int
	// Writers and UpdatesPerWriter shape the grouped measurement:
	// Writers concurrent submitters each committing UpdatesPerWriter
	// single-record updates, coalesced by the committer.
	Writers          int
	UpdatesPerWriter int
	// MaxGroup caps the commit group size (0 = core.DefaultMaxGroup).
	MaxGroup int
	// TOMUpdates sizes the sign-amortization comparison; TOMBatch is the
	// ops-per-group it batches (and so the signs it saves per group).
	TOMUpdates int
	TOMBatch   int
	// Dir is where the durable directories live; empty means the current
	// directory, deliberately NOT os.TempDir — /tmp is often tmpfs,
	// where fsync is free and the serial baseline would look fast.
	Dir      string
	Dist     workload.Distribution
	Seed     int64
	Progress func(string)
}

// DefaultWriteConfig mirrors the committed BENCH_write.json run.
func DefaultWriteConfig() WriteConfig {
	return WriteConfig{
		N:                20_000,
		SerialUpdates:    400,
		Writers:          128,
		UpdatesPerWriter: 50,
		MaxGroup:         core.DefaultMaxGroup,
		TOMUpdates:       384,
		TOMBatch:         32,
		Dist:             workload.UNF,
		Seed:             1,
	}
}

// WriteProcsPoint is one GOMAXPROCS measurement of the grouped path.
type WriteProcsPoint struct {
	Procs         int     `json:"procs"`
	UpdatesPerSec float64 `json:"updatesPerSec"`
	AvgGroup      float64 `json:"avgGroupSize"`
}

// WriteResult is the machine-readable outcome.
type WriteResult struct {
	N          int  `json:"n"`
	Writers    int  `json:"writers"`
	MaxGroup   int  `json:"maxGroup"`
	SHANI      bool `json:"shaNI"`
	GOMAXPROCS int  `json:"gomaxprocs"`

	// Single-core headline: serial durable commits vs the group
	// committer under concurrent submitters, same directory flavor.
	SerialUpdatesPerSec float64 `json:"serialUpdatesPerSec"`
	GroupUpdatesPerSec  float64 `json:"groupUpdatesPerSec"`
	GroupCommitWin      float64 `json:"groupCommitWin"`
	// AvgGroupSize is ops/groups achieved by the grouped run; the win is
	// only meaningful when this is deep (the acceptance bar is >= 32).
	AvgGroupSize float64 `json:"avgGroupSize"`
	SerialSyncs  int64   `json:"serialWalSyncs"`
	GroupSyncs   int64   `json:"groupWalSyncs"`

	// Grouped-path scaling as cores are added.
	Procs []WriteProcsPoint `json:"procsSweep"`

	// TOM comparison: per-update root re-sign vs one sign per group.
	TOMSerialUpdatesPerSec float64 `json:"tomSerialUpdatesPerSec"`
	TOMBatchUpdatesPerSec  float64 `json:"tomBatchUpdatesPerSec"`
	TOMBatch               int     `json:"tomBatchSize"`
	SignAmortWin           float64 `json:"signAmortWin"`
}

// measureSerialWrites commits updates one at a time through a durable
// system: every update pays a full WAL fsync and both party applies.
func measureSerialWrites(cfg *WriteConfig, seed []record.Record) (float64, int64, error) {
	dir, err := os.MkdirTemp(cfg.Dir, "sae-write-serial-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	ds, err := core.OpenDurableSystem(dir, seed, 1)
	if err != nil {
		return 0, 0, err
	}
	defer ds.Close()
	t0 := time.Now()
	for i := 0; i < cfg.SerialUpdates; i++ {
		key := record.Key((i * 6151) % record.KeyDomain)
		if _, err := ds.Insert(key); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(t0)
	st := ds.Stats()
	if out, err := ds.Query(record.Range{Lo: 0, Hi: record.KeyDomain}); err != nil || out.VerifyErr != nil {
		return 0, 0, fmt.Errorf("serial run failed verification: %v / %v", err, out.VerifyErr)
	}
	return float64(cfg.SerialUpdates) / elapsed.Seconds(), st.Syncs, nil
}

// measureGroupedWrites commits Writers*UpdatesPerWriter updates through
// the group committer under concurrent single-record submitters and
// returns (updates/s, achieved ops-per-group, fsyncs).
func measureGroupedWrites(cfg *WriteConfig, seed []record.Record) (float64, float64, int64, error) {
	dir, err := os.MkdirTemp(cfg.Dir, "sae-write-group-")
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.RemoveAll(dir)
	ds, err := core.OpenDurableSystem(dir, seed, cfg.MaxGroup)
	if err != nil {
		return 0, 0, 0, err
	}
	defer ds.Close()

	total := cfg.Writers * cfg.UpdatesPerWriter
	errs := make([]error, cfg.Writers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cfg.UpdatesPerWriter; i++ {
				key := record.Key(((w*cfg.UpdatesPerWriter + i) * 6151) % record.KeyDomain)
				if _, err := ds.Insert(key); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return 0, 0, 0, err
		}
	}
	st := ds.Stats()
	if out, err := ds.Query(record.Range{Lo: 0, Hi: record.KeyDomain}); err != nil || out.VerifyErr != nil {
		return 0, 0, 0, fmt.Errorf("grouped run failed verification: %v / %v", err, out.VerifyErr)
	}
	avgGroup := float64(st.Ops) / float64(st.Groups)
	return float64(total) / elapsed.Seconds(), avgGroup, st.Syncs, nil
}

// measureTOMWrites prices the comparison system's update path: serial
// re-signs the MB-tree root per update, batched signs once per
// TOMBatch-op group through Provider.ApplyBatchCtx.
func measureTOMWrites(cfg *WriteConfig, seed []record.Record) (float64, float64, error) {
	build := func() (*tom.Provider, *tom.Owner, error) {
		owner, err := tom.NewOwner()
		if err != nil {
			return nil, nil, err
		}
		p := tom.NewProvider(pagestore.NewMem())
		if err := p.Load(seed, owner); err != nil {
			return nil, nil, err
		}
		return p, owner, nil
	}
	recs := make([]record.Record, cfg.TOMUpdates)
	nextID := record.ID(10_000_000)
	for i := range recs {
		recs[i] = record.Synthesize(nextID+record.ID(i), record.Key((i*5081)%record.KeyDomain))
	}

	p, owner, err := build()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	for i := range recs {
		if err := p.ApplyInsert(recs[i], owner); err != nil {
			return 0, 0, err
		}
	}
	serialQPS := float64(len(recs)) / time.Since(t0).Seconds()

	p, owner, err = build()
	if err != nil {
		return 0, 0, err
	}
	ctx := exec.NewContext()
	t0 = time.Now()
	for lo := 0; lo < len(recs); lo += cfg.TOMBatch {
		hi := lo + cfg.TOMBatch
		if hi > len(recs) {
			hi = len(recs)
		}
		ops := make([]wal.Op, 0, hi-lo)
		for i := lo; i < hi; i++ {
			ops = append(ops, wal.InsertOp(recs[i]))
		}
		if err := p.ApplyBatchCtx(ctx, ops, owner); err != nil {
			return 0, 0, err
		}
	}
	batchQPS := float64(len(recs)) / time.Since(t0).Seconds()
	return serialQPS, batchQPS, nil
}

// RunWrite measures the write pipeline end to end.
func RunWrite(cfg WriteConfig) (*WriteResult, error) {
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}
	if cfg.MaxGroup <= 0 {
		cfg.MaxGroup = core.DefaultMaxGroup
	}
	ds, err := workload.Generate(cfg.Dist, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &WriteResult{
		N:          cfg.N,
		Writers:    cfg.Writers,
		MaxGroup:   cfg.MaxGroup,
		SHANI:      digest.Accelerated,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		TOMBatch:   cfg.TOMBatch,
	}

	// Headline pair on one core: the win must come from amortization
	// (one fsync, one lock pass, one digest dispatch per group), not
	// from parallel apply.
	prev := runtime.GOMAXPROCS(1)
	progress("write: serial durable baseline (1 fsync per update, 1 core)")
	res.SerialUpdatesPerSec, res.SerialSyncs, err = measureSerialWrites(&cfg, ds.Records)
	if err != nil {
		runtime.GOMAXPROCS(prev)
		return nil, err
	}
	progress(fmt.Sprintf("write: group commit, %d concurrent writers (1 core)", cfg.Writers))
	res.GroupUpdatesPerSec, res.AvgGroupSize, res.GroupSyncs, err = measureGroupedWrites(&cfg, ds.Records)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	res.GroupCommitWin = res.GroupUpdatesPerSec / res.SerialUpdatesPerSec

	// Scaling sweep: the grouped path as cores are added.
	maxProcs := prev
	procCounts := []int{1}
	for k := 2; k <= maxProcs; k *= 2 {
		procCounts = append(procCounts, k)
	}
	if last := procCounts[len(procCounts)-1]; last != maxProcs {
		procCounts = append(procCounts, maxProcs)
	}
	for _, k := range procCounts {
		if k == 1 {
			res.Procs = append(res.Procs, WriteProcsPoint{
				Procs: 1, UpdatesPerSec: res.GroupUpdatesPerSec, AvgGroup: res.AvgGroupSize,
			})
			continue
		}
		progress(fmt.Sprintf("write: group commit at GOMAXPROCS=%d", k))
		p := runtime.GOMAXPROCS(k)
		qps, avg, _, err := measureGroupedWrites(&cfg, ds.Records)
		runtime.GOMAXPROCS(p)
		if err != nil {
			return nil, err
		}
		res.Procs = append(res.Procs, WriteProcsPoint{Procs: k, UpdatesPerSec: qps, AvgGroup: avg})
	}

	// TOM comparison: what batching buys when every group must end in an
	// RSA root re-sign.
	progress("write: TOM sign amortization (per-update vs per-group re-sign)")
	res.TOMSerialUpdatesPerSec, res.TOMBatchUpdatesPerSec, err = measureTOMWrites(&cfg, ds.Records)
	if err != nil {
		return nil, err
	}
	res.SignAmortWin = res.TOMBatchUpdatesPerSec / res.TOMSerialUpdatesPerSec
	return res, nil
}
