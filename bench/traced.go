package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sae/internal/agg"
	"sae/internal/bptree"
	"sae/internal/bufpool"
	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/heapfile"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/wal"
	"sae/internal/wire"
	"sae/internal/xbtree"
)

// tracedRequests is how many of the workload's first requests the traced
// run replays, time permitting.
const tracedRequests = 2000

// Validity limits of a traced run (README.md, "Traced run"). A layer's
// median self time may fall below zero by at most this share of its
// parent's median duration, and the layers' median self times must add
// back up to the root's median within the band; beyond that the paired
// replays disagree with the request they decompose. The limits come in
// two strengths. Outside the `want` limits the run says so, loudly, and
// carries on: on a shared machine, medians of differences of
// hundred-microsecond calls cross a tight limit by chance, and a noisy
// minute must not look like a wrong answer. Outside the `broken` limits
// the tracer itself no longer measures what it claims to — a layer that
// vanished, a replay that times the wrong call — and the run fails.
const (
	wantReconcileLo, wantReconcileHi     = 0.9, 1.1
	wantNegativeSelf                     = 0.05
	brokenReconcileLo, brokenReconcileHi = 0.5, 2.0
	brokenNegativeSelf                   = 0.5
)

// replay is what the traced run produced.
type replay struct {
	metrics           map[string]metric
	spans             []span
	attempted, failed int
	firstErr          error
}

// readLayers are stand-alone instances of the layers under a primary's
// read path, over one partition: the SP's B+-tree and heap file and the
// TE's XB-tree, built as core.ServiceProvider.Load and
// core.TrustedEntity.Load build them.
type readLayers struct {
	index *bptree.Tree
	heap  *heapfile.File
	xb    *xbtree.Tree
}

func newStore() *pagestore.Counting {
	return pagestore.NewCounting(pagestore.NewVersioned(pagestore.NewMem()))
}

func buildReadLayers(part []record.Record) (*readLayers, error) {
	spStore := newStore()
	heap, rids, err := heapfile.Build(spStore, part)
	if err != nil {
		return nil, err
	}
	entries := make([]bptree.Entry, len(part))
	for i := range part {
		entries[i] = bptree.Entry{Key: part[i].Key, RID: rids[i]}
	}
	index, err := bptree.Bulkload(spStore, entries)
	if err != nil {
		return nil, err
	}
	spCache := bufpool.New(bufpool.DefaultCapacity, bufpool.ChargeAllAccesses)
	heap.UseCache(spCache)
	index.UseCache(spCache)

	digests := make([]digest.Digest, len(part))
	digest.RecordDigests(digests, part, 0)
	var items []xbtree.KeyTuples
	for i := range part {
		tup := xbtree.Tuple{ID: part[i].ID, Digest: digests[i]}
		if n := len(items); n > 0 && items[n-1].Key == part[i].Key {
			items[n-1].Tuples = append(items[n-1].Tuples, tup)
		} else {
			items = append(items, xbtree.KeyTuples{Key: part[i].Key, Tuples: []xbtree.Tuple{tup}})
		}
	}
	xb, err := xbtree.Bulkload(newStore(), items)
	if err != nil {
		return nil, err
	}
	xb.UseCache(bufpool.New(bufpool.DefaultCapacity, bufpool.ChargeAllAccesses))
	return &readLayers{index: index, heap: heap, xb: xb}, nil
}

// writeLayers are the pieces under a primary's write path, each on its
// own: a second durable system over shard 0 (the root request already
// changed the deployed one, so the same batch is replayed into this
// twin), a bare WAL, and bare SP and TE to apply the batch to.
type writeLayers struct {
	twin    *core.DurableSystem
	log     *wal.Log
	seq     uint64
	sp      *core.ServiceProvider
	te      *core.TrustedEntity
	scratch *os.File // reference fsync target

	walBytes, userBytes int64
}

func buildWriteLayers(dir string, part []record.Record) (*writeLayers, error) {
	w := &writeLayers{}
	var err error
	if w.twin, err = core.OpenDurableSystem(filepath.Join(dir, "twin"), part, 0); err != nil {
		return nil, err
	}
	if w.log, err = wal.Create(filepath.Join(dir, "bare.wal")); err != nil {
		return nil, err
	}
	if w.scratch, err = os.Create(filepath.Join(dir, "fsync.ref")); err != nil {
		return nil, err
	}
	w.sp = core.NewServiceProvider(pagestore.NewMem())
	if err := w.sp.Load(part); err != nil {
		return nil, err
	}
	w.te = core.NewTrustedEntity(pagestore.NewMem())
	return w, w.te.Load(part)
}

func (w *writeLayers) close() {
	if w.twin != nil {
		w.twin.Close()
	}
	if w.log != nil {
		w.log.Close()
	}
	if w.scratch != nil {
		w.scratch.Close()
	}
}

// tracer of one workload's replay.
type tracedRun struct {
	*runner // connected to the in-process deployment
	local   *localDeployment
	tr      *tracer
	vp      core.VerifyPool

	// Direct connections to each primary, bypassing the router.
	primVC []*wire.VerifiedClient
	primSP []*wire.SPClient
	primTE []*wire.TEClient
	// The aggregate's two legs through the router, one at a time.
	routerSP *wire.SPClient
	routerTE *wire.TEClient

	reads  []*readLayers
	writes *writeLayers

	encBuf []byte
	rids   []heapfile.RID
}

func (t *tracedRun) close() {
	for _, c := range t.primVC {
		c.Close()
	}
	for _, c := range t.primSP {
		c.Close()
	}
	for _, c := range t.primTE {
		c.Close()
	}
	if t.routerSP != nil {
		t.routerSP.Close()
	}
	if t.routerTE != nil {
		t.routerTE.Close()
	}
	if t.writes != nil {
		t.writes.close()
	}
	t.disconnect()
	t.local.close()
}

// timed runs f and returns how long it took.
func timed(f func() error) (int64, error) {
	start := time.Now()
	err := f()
	return int64(time.Since(start)), err
}

// hot runs f once untimed and then twice timed, and returns the shorter
// time.
//
// Untimed first: a routed request is the first to touch its pages and
// pays the cache misses; a replay one layer lower would find the same
// pages hot and look cheaper than the work it decomposes. With every
// timed call preceded by an untimed call of itself, every level is timed
// hot and the levels can be subtracted from one another. What a cold
// request pays on top shows in trace.overhead_ratio, which holds the hot
// traced round trip against the cold untraced one.
//
// Best of two: each level is a separate call of some tens of
// microseconds on a shared machine, and a level's self time is a
// difference of two of them. One disturbed call skews that difference;
// with the better of two calls the layers' medians add back up to the
// root's (trace.reconcile_ratio) instead of falling a tenth short.
func hot(f func() error) (int64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	a, err := timed(f)
	if err != nil {
		return 0, err
	}
	b, err := timed(f)
	return min(a, b), err
}

// emitEncoded is what a server does with each record it serves: append
// its canonical encoding to the response.
func (t *tracedRun) emitEncoded(r *record.Record) error {
	t.encBuf = r.AppendBinary(t.encBuf)
	return nil
}

// serveInProcess runs one sub-query through its primary's serve call,
// without the wire.
func (t *tracedRun) serveInProcess(sub shard.SubQuery) error {
	t.encBuf = t.encBuf[:0]
	_, _, _, err := t.local.systems[sub.Shard].ServeVerified(sub.Sub, t.emitEncoded)
	return err
}

// readStandalone runs one sub-query through each stand-alone structure
// under the serve call — B+-tree range, heap serve, XB-tree token — and
// returns how long each took and how many pages it touched.
func (t *tracedRun) readStandalone(sub shard.SubQuery) (d, pages [3]int64, err error) {
	layers := t.reads[sub.Shard]
	lo, hi := sub.Sub.Lo, sub.Sub.Hi
	ectx := exec.NewContext()
	steps := [3]func() error{
		func() (err error) { t.rids, err = layers.index.RangeAppendCtx(ectx, lo, hi, t.rids[:0]); return err },
		func() error { t.encBuf = t.encBuf[:0]; return layers.heap.ServeManyCtx(ectx, t.rids, t.emitEncoded) },
		func() error { _, err := layers.xb.GenerateVTCtx(ectx, lo, hi); return err },
	}
	var before int64
	for i, step := range steps {
		if d[i], err = timed(step); err != nil {
			return d, pages, err
		}
		after := ectx.Stats().Accesses()
		pages[i], before = after-before, after
	}
	return d, pages, nil
}

// traceRange replays one verified range query. The client-side steps are
// exactly wire.VerifiedClient.QueryCtx's, taken one at a time. Every
// level is timed hot (see hot).
func (t *tracedRun) traceRange(ctx context.Context, id int, rootName string, q record.Range) error {
	tr := t.tr
	vc := t.readers[0]
	if _, _, err := vc.QueryCtx(ctx, q); err != nil {
		return err
	}
	// The client's side of the request, in place; the better of two.
	var (
		stamps  [5]int64
		recsRaw []byte
		recs    []record.Record
	)
	sent := t.oracle.now()
	for try := 0; try < 2; try++ {
		t0 := tr.now()
		raw, err := vc.QueryRawVerifiedCtx(ctx, q)
		if err != nil {
			return err
		}
		t1 := tr.now()
		_, _, vt, rr, err := wire.DecodeVerifiedResult(raw)
		if err != nil {
			return err
		}
		if len(rr) < 4 {
			return fmt.Errorf("truncated record section in verified result")
		}
		t2 := tr.now()
		if _, err := t.vp.VerifyEncoded(q, rr[4:], vt); err != nil {
			return err
		}
		t3 := tr.now()
		rs, _, err := wire.DecodeRecords(rr)
		if err != nil {
			return err
		}
		t4 := tr.now()
		if try == 0 || t4-t0 < stamps[4]-stamps[0] {
			stamps, recsRaw, recs = [5]int64{t0, t1, t2, t3, t4}, rr, rs
		}
	}
	t0, t1, t2, t3, t4 := stamps[0], stamps[1], stamps[2], stamps[3], stamps[4]
	root := tr.add(id, 0, rootName, "wire", t0, t4)
	call := tr.add(id, root, "router.call", "router", t0, t1)
	tr.add(id, root, "wire.decode", "wire", t1, t2)
	verify := tr.add(id, root, "core.verify", "core", t2, t3)
	tr.add(id, root, "wire.decode", "wire", t3, t4)
	if err := t.oracle.checkRange(q, recs, sent, t.oracle.now()); err != nil {
		return err
	}

	d, _ := hot(func() error { digest.XORFoldWire(recsRaw[4:], 0); return nil })
	tr.at(tr.addPaired(verify, "digest.fold", "digest", 0, d)).Units = int64(len(recs))

	// One level down: what the router asked of each primary. The router
	// scatters in parallel, so the sub-requests overlap in its interval.
	subs := t.ds.plan.Scatter(q)
	parts := make([]shard.SAEPart, len(subs))
	for i, sub := range subs {
		var subRaw []byte
		d, err := hot(func() (err error) {
			subRaw, err = t.primVC[sub.Shard].QueryRawVerifiedCtx(ctx, sub.Sub)
			return err
		})
		if err != nil {
			return err
		}
		direct := tr.addPaired(call, "primary.call", "wire", 0, d)
		if len(subs) > 1 {
			_, _, subVT, subRecs, err := wire.DecodeVerifiedResult(subRaw)
			if err != nil {
				return err
			}
			if parts[i].Recs, _, err = wire.DecodeRecords(subRecs); err != nil {
				return err
			}
			parts[i].VT = subVT
		}

		// Two levels down: the primary's serve call, without the wire.
		if d, err = hot(func() error { return t.serveInProcess(sub) }); err != nil {
			return err
		}
		serve := tr.addPaired(direct, "core.serve", "core", 0, d)

		// Three levels down: each structure under the serve call, alone.
		if _, _, err := t.readStandalone(sub); err != nil {
			return err
		}
		ds, pages, err := t.readStandalone(sub)
		if err != nil {
			return err
		}
		tr.at(tr.addPaired(serve, "bptree.range", "bptree", 0, ds[0])).Pages = pages[0]
		tr.at(tr.addPaired(serve, "heapfile.serve", "heapfile", ds[0], ds[1])).Pages = pages[1]
		tr.at(tr.addPaired(serve, "xbtree.vt", "xbtree", ds[0]+ds[1], ds[2])).Pages = pages[2]
	}
	if len(subs) > 1 {
		d, _ := hot(func() error { shard.MergeSAE(parts); return nil })
		tr.addRef(id, "shard.merge", "shard", d)
	}
	return nil
}

// traceAgg replays one verified aggregate. wire.VerifyingClient.Aggregate
// sends its two legs at once; the replay sends them one after the other
// so that their costs add up instead of overlapping, which is why this
// workload's trace.overhead_ratio sits well above 1.
func (t *tracedRun) traceAgg(ctx context.Context, id int, q record.Range) error {
	tr := t.tr
	if _, err := t.agg.Aggregate(q); err != nil {
		return err
	}
	// The client's side of the request, in place; the better of two.
	var stamps [4]int64
	var a agg.Agg
	for try := 0; try < 2; try++ {
		t0 := tr.now()
		got, err := t.routerSP.AggregateWithCtx(ctx, q)
		if err != nil {
			return err
		}
		t1 := tr.now()
		tok, err := t.routerTE.AggTokenWithCtx(ctx, q)
		if err != nil {
			return err
		}
		t2 := tr.now()
		if err := tok.Verify(q, got); err != nil {
			return err
		}
		t3 := tr.now()
		if try == 0 || t3-t0 < stamps[3]-stamps[0] {
			stamps, a = [4]int64{t0, t1, t2, t3}, got
		}
	}
	root := tr.add(id, 0, "client.rtt", "wire", stamps[0], stamps[3])
	spLeg := tr.add(id, root, "router.call", "router", stamps[0], stamps[1])
	teLeg := tr.add(id, root, "router.call", "router", stamps[1], stamps[2])
	tr.add(id, root, "agg.verify", "agg", stamps[2], stamps[3])
	if err := t.oracle.checkAgg(q, a); err != nil {
		return err
	}

	subs := t.ds.plan.Scatter(q)
	parts := make([]shard.AggPart, len(subs))
	ectx := exec.NewContext()
	for i, sub := range subs {
		s, lo, hi := sub.Shard, sub.Sub.Lo, sub.Sub.Hi
		layers := t.reads[s]
		parts[i].Sub = sub.Sub

		// The SP leg, one, two and three levels down.
		d, err := hot(func() (err error) {
			parts[i].Agg, err = t.primSP[s].AggregateWithCtx(ctx, sub.Sub)
			return err
		})
		if err != nil {
			return err
		}
		direct := tr.addPaired(spLeg, "primary.call", "wire", 0, d)
		if d, err = hot(func() error { _, _, err := t.local.systems[s].SP.AggregateCtx(ectx, sub.Sub); return err }); err != nil {
			return err
		}
		serve := tr.addPaired(direct, "core.serve", "core", 0, d)
		if d, err = hot(func() error { ectx.Reset(); _, err := layers.index.AggregateCtx(ectx, lo, hi); return err }); err != nil {
			return err
		}
		tr.at(tr.addPaired(serve, "bptree.agg", "bptree", 0, d)).Pages = ectx.Stats().Accesses()

		// The TE leg.
		if d, err = hot(func() error { _, err := t.primTE[s].AggTokenWithCtx(ctx, sub.Sub); return err }); err != nil {
			return err
		}
		direct = tr.addPaired(teLeg, "primary.call", "wire", 0, d)
		if d, err = hot(func() error { _, _, err := t.local.systems[s].TE.AggTokenCtx(ectx, sub.Sub); return err }); err != nil {
			return err
		}
		serve = tr.addPaired(direct, "core.serve", "core", 0, d)
		d, err = hot(func() error {
			ectx.Reset()
			a, err := layers.xb.AggregateCtx(ectx, lo, hi)
			agg.TokenFor(sub.Sub, a)
			return err
		})
		if err != nil {
			return err
		}
		tr.at(tr.addPaired(serve, "xbtree.aggtoken", "xbtree", 0, d)).Pages = ectx.Stats().Accesses()
	}
	if len(subs) > 1 {
		d, err := hot(func() error { _, err := shard.MergeAgg(q, parts); return err })
		if err != nil {
			return err
		}
		tr.addRef(id, "shard.mergeagg", "shard", d)
	}
	return nil
}

// traceWrite replays one durable batch at shard 0's primary.
func (t *tracedRun) traceWrite(id int, req request) error {
	tr := t.tr
	var ops []wal.Op
	var commit func() error
	victims := []written(nil)
	if req.kind == opDelete {
		victims = t.takeVictims()
	}
	if victims != nil {
		for _, v := range victims {
			ops = append(ops, wal.DeleteOp(v.id, v.key))
		}
		commit = func() error { return t.deleteBatch(victims) }
	} else {
		recs := t.synthesize(req.keys)
		for i := range recs {
			ops = append(ops, wal.InsertOp(recs[i]))
		}
		commit = func() error { return t.insertBatch(recs) }
	}
	t0 := tr.now()
	if err := commit(); err != nil {
		return err
	}
	root := tr.add(id, 0, "client.rtt", "wire", t0, tr.now())
	tr.at(root).Units = int64(len(ops))

	w := t.writes
	d, err := timed(func() error { return w.twin.Committer().SubmitOps(ops) })
	if err != nil {
		return err
	}
	submit := tr.addPaired(root, "core.commit.submit", "core.commit", 0, d)

	w.seq++
	sizeBefore := w.log.Size()
	d1, err := timed(func() error { return w.log.AppendGroup(w.seq, ops) })
	if err != nil {
		return err
	}
	groupBytes := w.log.Size() - sizeBefore
	w.walBytes += groupBytes
	for i := range ops {
		if ops[i].Kind == wal.OpInsert {
			w.userBytes += record.Size
		} else {
			w.userBytes += 12 // id + key
		}
	}
	ectx := exec.NewContext()
	d2, err := timed(func() error { return w.sp.ApplyBatchCtx(ectx, ops) })
	if err != nil {
		return err
	}
	d3, err := timed(func() error { return w.te.ApplyBatchCtx(ectx, ops) })
	if err != nil {
		return err
	}
	tr.addPaired(submit, "wal.append", "wal", 0, d1)
	tr.addPaired(submit, "core.sp_apply", "core", d1, d2)
	tr.addPaired(submit, "core.te_apply", "core", d1+d2, d3)

	// Reference: what one fsync of a group this size costs in this
	// directory. The WAL does not expose its sync apart from its append.
	if _, err := w.scratch.Write(make([]byte, groupBytes)); err != nil {
		return err
	}
	d, err = timed(w.scratch.Sync)
	if err != nil {
		return err
	}
	tr.addRef(id, "wal.sync", "wal", d)
	return nil
}

// traceRequests lists the requests the replay walks through: the first
// ones of the workload's open phase, and for write_mixed the background
// reads merged in where their arrival times put them.
func (t *tracedRun) traceRequests() []request {
	spec := t.cfg.spec
	rate := spec.openRate + spec.bgReadRate
	dur := time.Duration(float64(2*tracedRequests) / rate * float64(time.Second))
	type timedReq struct {
		at  time.Duration
		req request
	}
	var all []timedReq
	arrivals, reqs := t.generate(spec, streamOpenArrivals, streamOpen, 0, spec.openRate, dur)
	for i := range reqs {
		all = append(all, timedReq{arrivals[i], reqs[i]})
	}
	if spec.bgReadRate > 0 {
		readSpec := workloadSpec{kind: opRange, extent: spec.extent}
		arrivals, reqs = t.generate(readSpec, streamBackgroundArrivals, streamBackground, 0, spec.bgReadRate, dur)
		for i := range reqs {
			all = append(all, timedReq{arrivals[i], reqs[i]})
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	}
	out := make([]request, 0, tracedRequests)
	for _, tr := range all[:min(len(all), tracedRequests)] {
		out = append(out, tr.req)
	}
	return out
}

// tracedReplay serves the workload's topology inside this process,
// replays the workload's first requests serially — first untraced, to
// warm up and to have a tracing-off round-trip time to compare with,
// then traced — and derives the per-layer metrics from the spans. It
// stops early, with fewer requests, when budget runs out.
func tracedReplay(cfg *runConfig, ds *dataset, budget time.Duration) (*replay, error) {
	deadline := time.Now().Add(budget)
	local, err := launchLocal(cfg.workDir, ds.plan, ds.parts)
	if err != nil {
		return nil, err
	}
	t := &tracedRun{
		runner: &runner{cfg: cfg, ds: ds, oracle: newOracle(ds.records)},
		local:  local,
		tr:     newTracer(),
		vp:     core.NewVerifyPool(0),
	}
	defer t.close()
	if err := t.attach(local); err != nil {
		return nil, err
	}
	if err := t.connect(); err != nil {
		return nil, err
	}
	if cfg.spec.kind == opInsert {
		// The replay reads through the connection the background reads use.
		if t.writes, err = buildWriteLayers(local.dir, ds.parts[0]); err != nil {
			return nil, err
		}
	}
	for i, addr := range local.primaryAddrs() {
		layers, err := buildReadLayers(ds.parts[i])
		if err != nil {
			return nil, err
		}
		t.reads = append(t.reads, layers)
		pvc, err := wire.DialVerified(addr)
		if err != nil {
			return nil, err
		}
		t.primVC = append(t.primVC, pvc)
		psp, err := wire.DialSP(addr)
		if err != nil {
			return nil, err
		}
		t.primSP = append(t.primSP, psp)
		pte, err := wire.DialTE(addr)
		if err != nil {
			return nil, err
		}
		t.primTE = append(t.primTE, pte)
	}
	if t.routerSP, err = wire.DialSP(local.routerAddr()); err != nil {
		return nil, err
	}
	if t.routerTE, err = wire.DialTE(local.routerAddr()); err != nil {
		return nil, err
	}

	reqs := t.traceRequests()
	ctx := context.Background()
	rep := &replay{}
	fail := func(err error) {
		rep.failed++
		if rep.firstErr == nil {
			rep.firstErr = err
		}
	}

	// Untraced pass: at most a quarter of what is left.
	untracedBy := time.Now().Add(time.Until(deadline) / 4)
	var untracedUs []float64
	for _, req := range reqs {
		if time.Now().After(untracedBy) {
			break
		}
		rep.attempted++
		start := time.Now()
		if _, err := t.do(ctx, 0, req); err != nil {
			fail(err)
			continue
		}
		if isOp(cfg.spec, req) {
			untracedUs = append(untracedUs, float64(time.Since(start))/1e3)
		}
	}

	// The twin and the bare SP and TE never saw the untraced pass's
	// inserts, so the traced pass must not pick them for deletion.
	t.pool = nil

	for i, req := range reqs {
		if time.Now().After(deadline) {
			break
		}
		rep.attempted++
		switch req.kind {
		case opRange:
			name := "client.rtt"
			if !isOp(cfg.spec, req) {
				name = "client.bg_rtt"
			}
			err = t.traceRange(ctx, i+1, name, req.q)
		case opAgg:
			err = t.traceAgg(ctx, i+1, req.q)
		default:
			err = t.traceWrite(i+1, req)
		}
		if err != nil {
			fail(err)
		}
	}
	rep.spans = t.tr.spans
	rep.metrics = t.layerMetrics(untracedUs)
	for _, problem := range t.validate(rep.metrics) {
		rep.attempted++
		fail(problem)
	}
	return rep, nil
}

// isOp reports whether req is one of the workload's own ops rather than a
// background read beside them.
func isOp(spec workloadSpec, req request) bool {
	return spec.kind != opInsert || req.kind != opRange
}

// opTreeNames are the spans that make up one op's tree, by workload kind,
// root first. Their self times are what must add back up to the root.
func opTreeNames(kind opKind) []string {
	switch kind {
	case opRange:
		return []string{"client.rtt", "router.call", "wire.decode", "core.verify", "digest.fold",
			"primary.call", "core.serve", "bptree.range", "heapfile.serve", "xbtree.vt"}
	case opAgg:
		return []string{"client.rtt", "router.call", "agg.verify", "primary.call", "core.serve",
			"bptree.agg", "xbtree.aggtoken"}
	default:
		return []string{"client.rtt", "core.commit.submit", "wal.append", "core.sp_apply", "core.te_apply"}
	}
}

// layerMetrics derives the traced per-layer metrics. Every *_us figure is
// a median over requests; a layer the workload never enters reports 0.
func (t *tracedRun) layerMetrics(untracedUs []float64) map[string]metric {
	spans := t.tr.spans
	self := selfTimes(spans)
	med := func(name string, f func(span) float64) float64 {
		xs := perTrace(spans, name, f)
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	durUs := func(s span) float64 { return float64(s.dur()) / 1e3 }
	selfUs := func(s span) float64 { return float64(self[s.ID]) / 1e3 }
	pages := func(s span) float64 { return float64(s.Pages) }

	kind := t.cfg.spec.kind
	rootUs := med("client.rtt", durUs)
	var sumSelf float64
	for _, name := range opTreeNames(kind) {
		sumSelf += med(name, selfUs)
	}
	wireSelf := med("primary.call", selfUs)
	coreSelf := med("core.serve", selfUs)
	if kind == opInsert {
		wireSelf = med("client.rtt", selfUs)
		coreSelf = med("core.commit.submit", selfUs)
	}
	var hits, lookups int64
	for _, sys := range t.local.systems {
		for _, st := range []bufpool.Stats{sys.SP.CacheStats(), sys.TE.CacheStats()} {
			hits += st.Hits
			lookups += st.Hits + st.Misses
		}
	}
	var walAmp float64
	if t.writes != nil {
		walAmp = ratio(float64(t.writes.walBytes), float64(t.writes.userBytes))
	}
	untraced := 0.0
	if len(untracedUs) > 0 {
		untraced = median(untracedUs)
	}
	// On the aggregate workload one op runs the tree descent on both the
	// B+-tree and the XB-tree; pages_per_op follows whichever descent the
	// workload does.
	bptreePages, xbtreePages := med("bptree.range", pages), med("xbtree.vt", pages)
	if kind == opAgg {
		bptreePages, xbtreePages = med("bptree.agg", pages), med("xbtree.aggtoken", pages)
	}
	return map[string]metric{
		"wire.client_rtt_us": {rootUs, "us"},
		"router.self_us":     {med("router.call", selfUs), "us"},
		"wire.self_us":       {wireSelf, "us"},
		"wire.decode_us":     {med("wire.decode", durUs), "us"},
		"core.verify_us":     {med("core.verify", durUs), "us"},
		"digest.fold_ns_per_record": {med("digest.fold", func(s span) float64 {
			if s.Units == 0 {
				return 0
			}
			return float64(s.dur()) / float64(s.Units)
		}), "ns"},
		"core.serve_us":           {med("core.serve", durUs), "us"},
		"core.self_us":            {coreSelf, "us"},
		"bptree.range_us":         {med("bptree.range", durUs), "us"},
		"bptree.pages_per_op":     {bptreePages, "count"},
		"heapfile.serve_us":       {med("heapfile.serve", durUs), "us"},
		"heapfile.pages_per_op":   {med("heapfile.serve", pages), "count"},
		"xbtree.vt_us":            {med("xbtree.vt", durUs), "us"},
		"xbtree.pages_per_op":     {xbtreePages, "count"},
		"bptree.agg_us":           {med("bptree.agg", durUs), "us"},
		"xbtree.aggtoken_us":      {med("xbtree.aggtoken", durUs), "us"},
		"agg.verify_us":           {med("agg.verify", durUs), "us"},
		"shard.mergeagg_us":       {med("shard.mergeagg", durUs), "us"},
		"shard.merge_us":          {med("shard.merge", durUs), "us"},
		"core.commit.submit_us":   {med("core.commit.submit", durUs), "us"},
		"wal.append_us_per_group": {med("wal.append", durUs), "us"},
		"wal.sync_us":             {med("wal.sync", durUs), "us"},
		"wal.bytes_per_user_byte": {walAmp, "ratio"},
		"core.sp_apply_us_per_op": {med("core.sp_apply", durUs), "us"},
		"core.te_apply_us_per_op": {med("core.te_apply", durUs), "us"},
		"bufpool.hit_ratio":       {ratio(float64(hits), float64(lookups)), "ratio"},
		"trace.reconcile_ratio":   {ratio(sumSelf, rootUs), "ratio"},
		"trace.overhead_ratio":    {ratio(rootUs, untraced), "ratio"},
	}
}

// validate applies the traced run's validity limits. It prints what
// falls outside the wanted limits and returns what falls outside the
// broken ones.
func (t *tracedRun) validate(m map[string]metric) []error {
	var broken []error
	judge := func(outsideWant, outsideBroken bool, format string, args ...any) {
		switch {
		case outsideBroken:
			broken = append(broken, fmt.Errorf(format, args...))
		case outsideWant:
			fmt.Fprintf(os.Stderr, "bench: traced run outside its limits: "+format+"\n", args...)
		}
	}
	r := m["trace.reconcile_ratio"].Value
	judge(r < wantReconcileLo || r > wantReconcileHi, r < brokenReconcileLo || r > brokenReconcileHi,
		"trace.reconcile_ratio %.3f: the layers' self times do not add back up to the round trip", r)

	spans := t.tr.spans
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, name := range opTreeNames(t.cfg.spec.kind)[1:] {
		selfs := perTrace(spans, name, func(s span) float64 { return float64(self[s.ID]) })
		parents := perTrace(spans, name, func(s span) float64 { return float64(byID[s.Parent].dur()) })
		if len(selfs) == 0 {
			broken = append(broken, fmt.Errorf("no %s span was recorded", name))
			continue
		}
		s, p := median(selfs), median(parents)
		judge(s < -wantNegativeSelf*p, s < -brokenNegativeSelf*p,
			"%s: median self time %.0f ns against its parent's %.0f ns: the replay ran longer than what it decomposes", name, s, p)
	}
	return broken
}
