// Package reshard implements online shard split and merge behind the
// router: a coordinator that migrates a live, contiguous run of shards
// to a successor topology with no client-visible downtime and no loss of
// verifiability at any instant.
//
// The protocol has three phases, mirroring how a replica joins a shard
// (bootstrap, tail, serve) plus an atomic publish:
//
//  1. Bootstrap. Each source primary is asked for a sequence-stamped
//     snapshot over its replication endpoint (the same MsgReplicaSnapReq
//     a replica uses). A new shard's span is one run of each source's
//     dump bytes; the coordinator loads those runs into one fresh
//     DurableSystem per new shard — each with its OWN WAL, checkpoint
//     and sequence domain — served immediately on its own address but
//     marked WARMING: the server refuses client reads, so a target can
//     never attest successor-epoch data it has not caught up to.
//
//  2. Catch-up. The coordinator tails each source's commit groups
//     (MsgReplicaPull, the replica protocol again), filters every
//     group's ops by key span, and feeds each target through its own
//     group-commit pipeline — so migrated writes are durable and
//     generation-stamped on the target exactly like native ones. The
//     loop runs until a full pass over every source returns no new
//     groups: lag is zero and everything left can only arrive during
//     the freeze window.
//
//  3. Cutover. The sources are frozen (writes block server-side; a TTL
//     auto-thaw bounds the damage of a dead coordinator) and the freeze
//     ack itself guarantees every in-flight group is committed and
//     visible in the WAL stream; one final drain empties the tail. The
//     coordinator then activates the targets, installs the successor
//     plan (epoch v+1) on the surviving primaries — servers accept only
//     strictly higher epochs, so this is replay-proof — and orders every
//     router to cut over (MsgReshardCutover). The router dials and
//     attests the new upstream set BEFORE swapping its topology pointer,
//     in-flight queries finish against epoch v, and new picks land on
//     v+1. Finally the sources are retired: permanently fenced from
//     clients while their replication endpoints stay up for stragglers.
//
// The client-visible pause is the freeze→router-ack window, which
// contains only the straggler drain and two control round trips —
// bounded by a commit-group interval, not by data volume, because ALL
// bulk data movement happens while the sources are still serving.
package reshard

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/replica"
	"sae/internal/shard"
	"sae/internal/wal"
	"sae/internal/wire"
)

// DefaultFreezeTTL bounds the source freeze when the Config does not:
// if the coordinator dies mid-cutover, sources thaw themselves after
// this long and the deployment continues on the old topology.
const DefaultFreezeTTL = 5 * time.Second

// Config parameterizes one reshard run.
type Config struct {
	// Current is the serving plan (epoch v); every source must attest
	// exactly it.
	Current shard.Plan
	// Next is the successor plan at epoch v+1, from Plan.SplitShard or
	// Plan.MergeShards: the contiguous run of Replaced shards starting
	// at FirstShard is replaced by len(TargetDirs) new shards, every
	// other span preserved.
	Next shard.Plan
	// FirstShard indexes the first replaced shard in Current.
	FirstShard int
	// Replaced is how many Current shards are being replaced (1 for a
	// split, >= 2 for a merge).
	Replaced int
	// Primaries is the current primary address of every Current shard.
	Primaries []string
	// TargetDirs holds one fresh durable directory per new shard.
	TargetDirs []string
	// TargetAddrs optionally fixes each target's listen address
	// (defaults to 127.0.0.1:0).
	TargetAddrs []string
	// Routers lists the router addresses to cut over; may be empty for
	// a router-less deployment (clients then learn the plan from the
	// primaries' attestations).
	Routers []string
	// FreezeTTL bounds the source write freeze (DefaultFreezeTTL if 0).
	FreezeTTL time.Duration
	// MaxGroup caps the targets' commit-group size (0 = default).
	MaxGroup int
	// Logf receives progress diagnostics (nil = silent).
	Logf func(string, ...any)
}

// Result reports what one reshard run did.
type Result struct {
	// Plan is the successor plan now being served.
	Plan shard.Plan
	// TargetAddrs are the new shards' serving addresses, in successor
	// shard order for the replaced run.
	TargetAddrs []string
	// CutoverPause is the freeze→cutover window: the only interval in
	// which a write could observe the reshard at all.
	CutoverPause time.Duration
	// GroupsStreamed counts source commit groups replayed into targets
	// during catch-up and drain.
	GroupsStreamed int
	// RecordsMigrated counts snapshot records bulk-loaded into targets.
	RecordsMigrated int
}

// target is one new shard hosted by the coordinator process.
type target struct {
	newIdx int
	span   record.Range
	ds     *core.DurableSystem
	srv    *wire.PrimaryServer
}

// source is one shard being migrated away. One connection carries its
// snapshot, its group tail and the freeze and retire orders.
type source struct {
	oldIdx int
	conn   *wire.Conn
	seq    uint64 // watermark: last source commit group folded into targets
}

// Coordinator hosts the target shards of a completed (or failed) run.
// It must stay alive as long as the targets serve; Close shuts them
// down.
type Coordinator struct {
	targets []*target
	sources []*source
}

// Close stops the target servers and their durable systems, and drops
// the source connections.
func (c *Coordinator) Close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, t := range c.targets {
		if t.srv != nil {
			keep(t.srv.Close())
		}
		if t.ds != nil {
			keep(t.ds.Close())
		}
	}
	for _, s := range c.sources {
		keep(s.conn.Close())
	}
	return first
}

// validate checks the successor plan against the run it claims to
// replace: epoch v+1, surviving spans preserved, and the replaced run's
// span tiled exactly by the new shards.
func validate(cfg *Config) (newCount int, err error) {
	cur, next := cfg.Current, cfg.Next
	if len(cfg.Primaries) != cur.Shards() {
		return 0, fmt.Errorf("reshard: %d primaries for a %d-shard plan", len(cfg.Primaries), cur.Shards())
	}
	if cfg.FirstShard < 0 || cfg.Replaced < 1 || cfg.FirstShard+cfg.Replaced > cur.Shards() {
		return 0, fmt.Errorf("reshard: replaced run [%d,%d) outside a %d-shard plan",
			cfg.FirstShard, cfg.FirstShard+cfg.Replaced, cur.Shards())
	}
	if next.Epoch() != cur.Epoch()+1 {
		return 0, fmt.Errorf("reshard: successor epoch %d does not succeed serving epoch %d", next.Epoch(), cur.Epoch())
	}
	newCount = next.Shards() - cur.Shards() + cfg.Replaced
	if newCount < 1 || newCount != len(cfg.TargetDirs) {
		return 0, fmt.Errorf("reshard: plan implies %d new shards, %d target dirs given", newCount, len(cfg.TargetDirs))
	}
	if len(cfg.TargetAddrs) != 0 && len(cfg.TargetAddrs) != newCount {
		return 0, fmt.Errorf("reshard: %d target addrs for %d new shards", len(cfg.TargetAddrs), newCount)
	}
	for s := 0; s < cfg.FirstShard; s++ {
		if next.Span(s) != cur.Span(s) {
			return 0, fmt.Errorf("reshard: successor plan moves uninvolved shard %d", s)
		}
	}
	for s := cfg.FirstShard + cfg.Replaced; s < cur.Shards(); s++ {
		if next.Span(s-cfg.Replaced+newCount) != cur.Span(s) {
			return 0, fmt.Errorf("reshard: successor plan moves uninvolved shard %d", s)
		}
	}
	runSpan := record.Range{Lo: cur.Span(cfg.FirstShard).Lo, Hi: cur.Span(cfg.FirstShard + cfg.Replaced - 1).Hi}
	tiled := record.Range{Lo: next.Span(cfg.FirstShard).Lo, Hi: next.Span(cfg.FirstShard + newCount - 1).Hi}
	if runSpan != tiled {
		return 0, fmt.Errorf("reshard: new shards tile %v, replaced run spans %v", tiled, runSpan)
	}
	return newCount, nil
}

// applyGroups filters a batch of source commit groups by span and feeds
// each target its slice as ONE submission — one target commit (one
// fsync) per pull batch, not per source group, so catch-up always
// outruns a hot writer that pays a commit per group. Targets commit in
// parallel: the freeze-window drain costs one commit latency total, not
// one per target, which is what keeps the cutover pause inside a single
// commit-group interval. Op order within and across groups is preserved
// per target (each target sees a disjoint key span, so there is no
// cross-target ordering to preserve).
func (c *Coordinator) applyGroups(gs []wal.Group) error {
	errs := make(chan error, len(c.targets))
	for _, t := range c.targets {
		var ops []wal.Op
		for _, g := range gs {
			for i := range g.Ops {
				if k := g.Ops[i].SearchKey(); k >= t.span.Lo && k <= t.span.Hi {
					ops = append(ops, g.Ops[i])
				}
			}
		}
		if len(ops) == 0 {
			errs <- nil
			continue
		}
		go func(t *target, ops []wal.Op) {
			if err := t.ds.Committer().SubmitOps(ops); err != nil {
				errs <- fmt.Errorf("reshard: committing source groups %d..%d into target shard %d: %w",
					gs[0].Seq, gs[len(gs)-1].Seq, t.newIdx, err)
				return
			}
			errs <- nil
		}(t, ops)
	}
	var first error
	for range c.targets {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// pullPass drains every source once: pulls commit groups after each
// watermark and replays them into the targets. It returns the number of
// groups replayed (0 = every source is fully caught up).
func (c *Coordinator) pullPass() (int, error) {
	streamed := 0
	for _, s := range c.sources {
		for {
			gs, snapshotNeeded, err := s.conn.Pull(context.Background(), s.seq, 64)
			if err != nil {
				return streamed, fmt.Errorf("reshard: tailing shard %d: %w", s.oldIdx, err)
			}
			if snapshotNeeded {
				return streamed, fmt.Errorf("reshard: shard %d's retention window passed watermark %d; raise the hub retention or re-run",
					s.oldIdx, s.seq)
			}
			if len(gs) == 0 {
				break
			}
			if err := c.applyGroups(gs); err != nil {
				return streamed, err
			}
			s.seq = gs[len(gs)-1].Seq
			streamed += len(gs)
		}
	}
	return streamed, nil
}

// Run executes one online reshard and returns the hosting Coordinator
// (which must outlive the new topology's serving life) plus a Result.
// On error the half-built coordinator is closed and the deployment is
// left on the current topology — the atomic publish in phase 3 is the
// only step with external effects, and it is ordered so every
// irreversible action happens after the successor set is fully able to
// serve.
func Run(cfg Config) (*Coordinator, *Result, error) {
	newCount, err := validate(&cfg)
	if err != nil {
		return nil, nil, err
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	freezeTTL := cfg.FreezeTTL
	if freezeTTL <= 0 {
		freezeTTL = DefaultFreezeTTL
	}
	c := &Coordinator{}
	ok := false
	defer func() {
		if !ok {
			c.Close()
		}
	}()

	// Phase 1: bootstrap. Snapshot every source, verify its attestation,
	// and bring up one warming target per new shard.
	res := &Result{Plan: cfg.Next}
	var dumps, payloads [][]byte // per source: its records in key order, and the payload holding them
	for i := 0; i < cfg.Replaced; i++ {
		oldIdx := cfg.FirstShard + i
		conn, err := wire.Dial(cfg.Primaries[oldIdx])
		if err != nil {
			return nil, nil, fmt.Errorf("reshard: dialing source shard %d: %w", oldIdx, err)
		}
		c.sources = append(c.sources, &source{oldIdx: oldIdx, conn: conn})
		si, dump, p, err := conn.Snapshot(context.Background())
		if err != nil {
			return nil, nil, fmt.Errorf("reshard: snapshotting source shard %d: %w", oldIdx, err)
		}
		payloads = append(payloads, p)
		if si.Index != oldIdx || !si.Plan.Equal(cfg.Current) {
			return nil, nil, fmt.Errorf("reshard: source %s attests shard %d of %v, want shard %d of %v",
				cfg.Primaries[oldIdx], si.Index, si.Plan, oldIdx, cfg.Current)
		}
		seq, recs, err := core.SnapshotRecords(dump)
		if err != nil {
			return nil, nil, fmt.Errorf("reshard: source shard %d snapshot: %w", oldIdx, err)
		}
		c.sources[i].seq = seq
		dumps = append(dumps, recs)
		logf("reshard: source shard %d snapshot: %d records at seq %d", oldIdx, len(recs)/record.Size, seq)
	}
	for j := 0; j < newCount; j++ {
		newIdx := cfg.FirstShard + j
		span := cfg.Next.Span(newIdx)
		// A source's dump is in key order and the span is contiguous, so
		// the span's records are one run of each dump, and the sources'
		// runs follow one another in key order.
		runs, n := make([]io.Reader, len(dumps)), 0
		for i, recs := range dumps {
			m := len(recs) / record.Size
			lo := sort.Search(m, func(r int) bool { return record.WireKey(recs[r*record.Size:]) >= span.Lo })
			hi := sort.Search(m, func(r int) bool { return record.WireKey(recs[r*record.Size:]) > span.Hi })
			runs[i], n = bytes.NewReader(recs[lo*record.Size:hi*record.Size]), n+hi-lo
		}
		ds, err := core.OpenDurableFrom(cfg.TargetDirs[j], n, io.MultiReader(runs...), cfg.MaxGroup)
		if err != nil {
			return nil, nil, fmt.Errorf("reshard: opening target shard %d: %w", newIdx, err)
		}
		// A fresh directory records only its base's fingerprint, and this
		// base is cut from sources that go on taking writes and are then
		// retired: no one could hand it back on a restart. Checkpoint it
		// before the target streams a group, so the directory reopens on
		// its own.
		if err := ds.Checkpoint(); err != nil {
			ds.Close()
			return nil, nil, fmt.Errorf("reshard: checkpointing target shard %d: %w", newIdx, err)
		}
		hub := replica.Attach(ds, 0)
		addr := "127.0.0.1:0"
		if len(cfg.TargetAddrs) > 0 {
			addr = cfg.TargetAddrs[j]
		}
		srv, err := wire.ServePrimary(addr, ds, hub, logf,
			wire.WithShardInfo(wire.ShardInfo{Index: newIdx, Plan: cfg.Next}))
		if err != nil {
			ds.Close()
			return nil, nil, fmt.Errorf("reshard: serving target shard %d: %w", newIdx, err)
		}
		srv.SetWarming(true)
		c.targets = append(c.targets, &target{newIdx: newIdx, span: span, ds: ds, srv: srv})
		res.RecordsMigrated += n
		res.TargetAddrs = append(res.TargetAddrs, srv.Addr())
		logf("reshard: target shard %d warming on %s with %d records", newIdx, srv.Addr(), n)
	}
	for _, p := range payloads {
		wire.Release(p)
	}

	// Phase 2: catch-up until one full pass over every source streams
	// nothing — lag zero, every remaining byte can only appear inside the
	// freeze window.
	for {
		n, err := c.pullPass()
		if err != nil {
			return nil, nil, err
		}
		res.GroupsStreamed += n
		if n == 0 {
			break
		}
	}
	logf("reshard: caught up (%d groups streamed); freezing sources", res.GroupsStreamed)

	// Phase 3: freeze, drain, publish. The pause clock runs from the
	// first freeze to the last router ack.
	t0 := time.Now()
	for _, s := range c.sources {
		if err := s.conn.Freeze(freezeTTL); err != nil {
			return nil, nil, fmt.Errorf("reshard: freezing shard %d: %w", s.oldIdx, err)
		}
	}
	n, err := c.pullPass()
	if err != nil {
		return nil, nil, err
	}
	res.GroupsStreamed += n

	// Targets are now byte-complete; let them take client traffic.
	for _, t := range c.targets {
		t.srv.SetWarming(false)
	}
	// Surviving primaries adopt the successor plan (their spans are
	// unchanged; their indices may shift past the replaced run).
	for s := 0; s < cfg.Current.Shards(); s++ {
		if s >= cfg.FirstShard && s < cfg.FirstShard+cfg.Replaced {
			continue
		}
		newIdx := s
		if s >= cfg.FirstShard+cfg.Replaced {
			newIdx = s - cfg.Replaced + newCount
		}
		ctrl, err := wire.DialSP(cfg.Primaries[s])
		if err != nil {
			return nil, nil, fmt.Errorf("reshard: dialing surviving shard %d: %w", s, err)
		}
		uerr := ctrl.PlanUpdate(wire.ShardInfo{Index: newIdx, Plan: cfg.Next})
		ctrl.Close()
		if uerr != nil {
			return nil, nil, fmt.Errorf("reshard: updating surviving shard %d: %w", s, uerr)
		}
	}
	// Routers swap to the successor topology; their builds re-attest the
	// full upstream set before the pointer swap.
	cut := wire.Cutover{Plan: cfg.Next, Shards: make([]wire.CutoverShard, cfg.Next.Shards())}
	for idx := 0; idx < cfg.Next.Shards(); idx++ {
		var addr string
		switch {
		case idx < cfg.FirstShard:
			addr = cfg.Primaries[idx]
		case idx < cfg.FirstShard+newCount:
			addr = c.targets[idx-cfg.FirstShard].srv.Addr()
		default:
			addr = cfg.Primaries[idx-newCount+cfg.Replaced]
		}
		cut.Shards[idx] = wire.CutoverShard{SPs: []string{addr}, TEs: []string{addr}}
	}
	for _, raddr := range cfg.Routers {
		rc, err := wire.DialSP(raddr)
		if err != nil {
			return nil, nil, fmt.Errorf("reshard: dialing router %s: %w", raddr, err)
		}
		cerr := rc.ReshardCutover(cut)
		rc.Close()
		if cerr != nil {
			return nil, nil, fmt.Errorf("reshard: cutting over router %s: %w", raddr, cerr)
		}
	}
	res.CutoverPause = time.Since(t0)
	// Retire the sources: thaw-and-fence. Any writer blocked on the
	// freeze fails out with a retirement error and must re-route to the
	// successor topology.
	for _, s := range c.sources {
		if err := s.conn.Retire(); err != nil {
			return nil, nil, fmt.Errorf("reshard: retiring shard %d: %w", s.oldIdx, err)
		}
	}
	ok = true
	logf("reshard: cut over to %v in %v (%d groups streamed, %d records migrated)",
		cfg.Next, res.CutoverPause, res.GroupsStreamed, res.RecordsMigrated)
	return c, res, nil
}
