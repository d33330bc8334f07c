package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/wire"
	"sae/internal/workload"
)

// How -seconds is spent. The warm phase fills caches and is discarded.
// The rest is cut into `cycles` equal cycles, each a closed-loop slice
// (sustained throughput and cost) followed by an open-loop slice (latency
// at the workload's frozen arrival rate, which gets the larger share
// because tail percentiles need the most samples). Closed and open
// slices alternate, instead of one long phase each, so that both sample
// the same stretches of a machine whose speed wanders over seconds and
// minutes.
const (
	warmShare   = 0.10
	cycles      = 12
	closedShare = 0.40 // of a cycle; the open slice takes the rest
)

// calmShare is the share of slices a reported figure is computed over:
// the calmest third. This sandbox is a shared virtual machine; a
// neighbour's burst slows a slice down and never speeds one up, so the
// slices that went best are the ones that show the program rather than
// the neighbour. A change to the program moves every slice, calm ones
// included. What the rule hides — a stall so rare that a third of the
// slices never meet it — is kept in sight by the uncut figures among the
// per-layer metrics (loadgen.ops_s_all, loadgen.lat_p99_all_ms).
const calmShare = 1.0 / 3

// tailShare is the share of open slices loadgen.lat_p99_ms is computed
// over: the calmest half rather than the calmest third, because one
// sample in a hundred needs more samples under it than a median does.
const tailShare = 1.0 / 2

// runConfig is everything one run of one workload needs.
type runConfig struct {
	spec        workloadSpec
	seed        int64         // workload seed: queries, keys, arrivals
	measure     time.Duration // warm + closed + open
	n           int           // dataset cardinality
	datasetSeed int64
	saenet      string // saenet binary; empty runs the servers in-process
	workDir     string // where deployments keep their directories
	setups      int    // how often to set the deployment up: half before the load, half after
}

// dataset is the relation every server loads, regenerated by the harness
// for its oracle and for the in-process deployments.
type dataset struct {
	records []record.Record
	plan    shard.Plan
	parts   [][]record.Record
}

func makeDataset(n int, seed int64) (*dataset, error) {
	ds, err := workload.Generate(workload.UNF, n, seed)
	if err != nil {
		return nil, err
	}
	plan := shard.PlanFor(ds.Records, shards)
	if plan.Shards() != shards {
		return nil, fmt.Errorf("dataset of %d records partitions into %d shards, need %d", n, plan.Shards(), shards)
	}
	return &dataset{records: ds.Records, plan: plan, parts: plan.Partition(ds.Records)}, nil
}

// launch starts a deployment of the configured kind.
func (cfg *runConfig) launch(ds *dataset) (deployment, error) {
	if cfg.saenet == "" {
		return launchLocal(cfg.workDir, ds.plan, ds.parts)
	}
	return launchProcs(cfg.saenet, cfg.workDir, cfg.n, cfg.datasetSeed)
}

// written is one record the harness inserted and may later delete.
type written struct {
	id  record.ID
	key record.Key
}

// runner drives one workload against one deployment.
type runner struct {
	cfg    *runConfig
	ds     *dataset
	oracle *oracle
	dep    deployment

	readers []*wire.VerifiedClient // dialled at the router
	agg     *wire.VerifyingClient  // both legs dialled at the router
	owner   *wire.SPClient         // dialled at shard 0's primary

	answers atomic.Uint64 // read answers so far; paces the oracle sampling
	nextID  atomic.Uint64

	poolMu sync.Mutex
	pool   []written // inserts acked and not yet handed to a delete batch
}

// procTimes is the CPU time the benchmark's processes have consumed.
type procTimes struct {
	router, primaries, loadgen time.Duration
}

func (a procTimes) sub(b procTimes) procTimes {
	return procTimes{router: a.router - b.router, primaries: a.primaries - b.primaries, loadgen: a.loadgen - b.loadgen}
}

func (a procTimes) total() time.Duration { return a.router + a.primaries + a.loadgen }

// sample reads the CPU time of the servers and of the generator itself,
// and the servers' resident memory.
func (r *runner) sample() (cpu procTimes, serversRSSKB int64, err error) {
	router, primaries, err := r.dep.procs()
	if err != nil {
		return cpu, 0, err
	}
	self, err := readProcUsage(os.Getpid())
	if err != nil {
		return cpu, 0, err
	}
	return procTimes{router: router.cpu, primaries: primaries.cpu, loadgen: self.cpu}, router.rssKB + primaries.rssKB, nil
}

// closedSlice is one closed-loop slice and what it cost.
type closedSlice struct {
	*phase
	cpu   procTimes // consumed during the slice
	bytes int64     // client bytes sent + received on the connections carrying the ops
	rssKB int64     // servers' resident memory at the end of the slice
}

// openSlice is one open-loop slice and when it ran, as offsets from the
// start of the run (the clock the background reads are scheduled on).
type openSlice struct {
	*phase
	from, to time.Duration
}

// observed is everything one run measured, before it is cut down to the
// end-to-end or the per-layer metric set.
type observed struct {
	setupS                    []float64
	closed                    []closedSlice
	open                      []openSlice
	bg                        *phase   // background reads beside the writes, whole run; nil on read workloads
	before, after             counters // around the measured cycles
	peakRouter, peakPrimaries procUsage
	attempted, failed         int
	firstErr                  error
}

// firstAnswer dials the router and waits for one verified answer: the
// end of set-up as a user sees it.
func firstAnswer(addr string) (*wire.VerifiedClient, error) {
	vc, err := wire.DialVerified(addr)
	if err != nil {
		return nil, err
	}
	if _, _, err := vc.Query(record.Range{Lo: 0, Hi: record.KeyDomain / 1000}); err != nil {
		vc.Close()
		return nil, fmt.Errorf("first verified answer: %w", err)
	}
	return vc, nil
}

// attach waits for dep's first verified answer and makes dep the
// deployment the runner drives. On error dep is closed.
func (r *runner) attach(dep deployment) error {
	vc, err := firstAnswer(dep.routerAddr())
	if err != nil {
		dep.close()
		return err
	}
	r.dep = dep
	r.readers = []*wire.VerifiedClient{vc}
	return nil
}

// launches sets the deployment up n times, timing each launch from the
// first child's start to the first verified answer through the router.
// With keep the last deployment stays up as the one the runner drives;
// every other is taken down at once.
func (r *runner) launches(n int, keep bool) ([]float64, error) {
	var times []float64
	for k := 0; k < n; k++ {
		start := time.Now()
		dep, err := r.cfg.launch(r.ds)
		if err != nil {
			return nil, err
		}
		if err := r.attach(dep); err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if !keep || k < n-1 {
			r.disconnect()
			dep.close()
		}
	}
	return times, nil
}

// connect opens the workload's load-carrying connections: always two.
func (r *runner) connect() error {
	info, err := r.readers[0].ShardMap()
	if err != nil {
		return fmt.Errorf("asking the router for its plan: %w", err)
	}
	if !info.Plan.SameSpans(r.ds.plan) {
		return fmt.Errorf("router serves %v, the harness derived %v from the same dataset seed", info.Plan, r.ds.plan)
	}
	switch r.cfg.spec.kind {
	case opRange:
		vc, err := wire.DialVerified(r.dep.routerAddr())
		if err != nil {
			return err
		}
		r.readers = append(r.readers, vc)
	case opAgg:
		r.disconnect()
		if r.agg, err = wire.DialVerifying(r.dep.routerAddr(), r.dep.routerAddr()); err != nil {
			return err
		}
	case opInsert:
		if r.owner, err = wire.DialSP(r.dep.primaryAddrs()[0]); err != nil {
			return err
		}
	}
	return nil
}

func (r *runner) disconnect() {
	for _, vc := range r.readers {
		vc.Close()
	}
	r.readers = nil
	if r.agg != nil {
		r.agg.Close()
		r.agg = nil
	}
	if r.owner != nil {
		r.owner.Close()
		r.owner = nil
	}
}

// opBytes is the running total of client bytes on the connections that
// carry the workload's ops (not the background reads).
func (r *runner) opBytes() int64 {
	var b int64
	switch r.cfg.spec.kind {
	case opRange:
		for _, vc := range r.readers {
			b += vc.BytesSent() + vc.BytesReceived()
		}
	case opAgg:
		b = r.agg.SP.BytesSent() + r.agg.SP.BytesReceived() + r.agg.TE.BytesSent() + r.agg.TE.BytesReceived()
	case opInsert:
		b = r.owner.BytesSent() + r.owner.BytesReceived()
	}
	return b
}

func (r *runner) tagOf(q record.Range) uint8 {
	first, last, _ := r.ds.plan.Overlapping(q)
	switch {
	case first != last:
		return tagStraddle
	case first == 0:
		return tagShard0
	default:
		return tagOther
	}
}

// sampled reports whether this read answer is one the oracle checks.
func (r *runner) sampled() bool { return r.answers.Add(1)%oracleEvery == 0 }

// do performs one request and checks its answer.
func (r *runner) do(ctx context.Context, caller int, req request) (uint8, error) {
	switch req.kind {
	case opRange:
		vc := r.readers[caller%len(r.readers)]
		sent := r.oracle.now()
		recs, _, err := vc.QueryCtx(ctx, req.q)
		if err != nil {
			return 0, err
		}
		if r.sampled() {
			err = r.oracle.checkRange(req.q, recs, sent, r.oracle.now())
		}
		return r.tagOf(req.q), err
	case opAgg:
		a, err := r.agg.Aggregate(req.q)
		if err != nil {
			return 0, err
		}
		if r.sampled() {
			err = r.oracle.checkAgg(req.q, a)
		}
		return r.tagOf(req.q), err
	case opDelete:
		if victims := r.takeVictims(); victims != nil {
			return tagShard0, r.deleteBatch(victims)
		}
		// Too few acked inserts to delete yet (only at the very start of
		// the warm phase): insert instead.
		fallthrough
	default:
		return tagShard0, r.insertBatch(r.synthesize(req.keys))
	}
}

// synthesize builds the records of one insert batch under fresh ids.
func (r *runner) synthesize(keys []record.Key) []record.Record {
	recs := make([]record.Record, len(keys))
	base := r.nextID.Add(uint64(len(keys))) - uint64(len(keys))
	for i, k := range keys {
		recs[i] = record.Synthesize(writtenIDBase+record.ID(base)+record.ID(i), k)
	}
	return recs
}

// insertBatch commits one durable insert batch at shard 0's primary and
// tells the oracle when it was submitted and when it was acked.
func (r *runner) insertBatch(recs []record.Record) error {
	r.oracle.insertSubmitted(recs)
	if err := r.owner.InsertBatch(recs); err != nil {
		return err
	}
	r.oracle.insertAcked(recs)
	r.poolMu.Lock()
	for i := range recs {
		r.pool = append(r.pool, written{recs[i].ID, recs[i].Key})
	}
	r.poolMu.Unlock()
	return nil
}

// takeVictims removes the oldest batchSize acked inserts from the pool,
// or returns nil when there are not that many.
func (r *runner) takeVictims() []written {
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	if len(r.pool) < batchSize {
		return nil
	}
	victims := append([]written(nil), r.pool[:batchSize]...)
	r.pool = r.pool[batchSize:]
	return victims
}

func (r *runner) deleteBatch(victims []written) error {
	ids := make([]record.ID, len(victims))
	keys := make([]record.Key, len(victims))
	for i, v := range victims {
		ids[i], keys[i] = v.id, v.key
	}
	r.oracle.deleteSubmitted(ids)
	if err := r.owner.DeleteBatch(ids, keys); err != nil {
		return err
	}
	r.oracle.deleteAcked(ids)
	return nil
}

// generate draws one open-loop schedule — arrivals and their requests —
// from the streams of the given slice.
func (r *runner) generate(spec workloadSpec, arrivalStream, reqStream, slice int, rate float64, dur time.Duration) ([]time.Duration, []request) {
	arrivals := poissonArrivals(streamRNG(r.cfg.seed, arrivalStream, slice), rate, dur)
	g := newGenerator(r.cfg.seed, reqStream, slice, spec, r.ds.plan.Span(0))
	reqs := make([]request, len(arrivals))
	for i := range reqs {
		reqs[i] = g.next()
	}
	return arrivals, reqs
}

// run sets the deployment up, drives the warm phase and the measured
// cycles, makes the final checks, and tears everything down.
func (r *runner) run() (*observed, error) {
	spec := r.cfg.spec
	obs := &observed{}
	var err error
	// Half of the launches happen before the load and half after it: the
	// two groups are a whole run apart, so a neighbour's burst a few
	// seconds long slows one group and not both, and the calm rule over
	// all of them cuts it out.
	before := (r.cfg.setups + 1) / 2
	if obs.setupS, err = r.launches(before, true); err != nil {
		return nil, err
	}
	defer r.dep.close()
	defer r.disconnect()
	if err := r.connect(); err != nil {
		return nil, err
	}
	ctx := r.dep.alive()

	warmDur := time.Duration(float64(r.cfg.measure) * warmShare)
	cycleDur := (r.cfg.measure - warmDur) / cycles
	closedDur := time.Duration(float64(cycleDur) * closedShare)
	openDur := cycleDur - closedDur

	// write_mixed keeps writersInFlight batches in flight on its one owner
	// connection; the read workloads run one synchronous caller on each of
	// their two connections.
	callers := 2
	if spec.kind == opInsert {
		callers = writersInFlight
	}
	closedGens := func(stream int) func(int) request {
		gens := make([]*generator, callers)
		for c := range gens {
			gens[c] = newGenerator(r.cfg.seed, stream, c, spec, r.ds.plan.Span(0))
		}
		return func(c int) request { return gens[c].next() }
	}

	// Background reads run beside the writes from the first phase to the
	// last, on their own connection, at their own fixed rate.
	began := time.Now()
	var bgDone chan *phase
	if spec.bgReadRate > 0 {
		readSpec := workloadSpec{kind: opRange, extent: spec.extent}
		arrivals, reqs := r.generate(readSpec, streamBackgroundArrivals, streamBackground, 0, spec.bgReadRate, r.cfg.measure)
		bgDone = make(chan *phase, 1)
		go func() { bgDone <- openLoop(ctx, r.cfg.measure, arrivals, reqs, 1, r.do) }()
	}

	phases := []*phase{closedLoop(ctx, warmDur, callers, closedGens(streamWarm), r.do)}

	if obs.before, err = r.dep.counters(); err != nil {
		return nil, err
	}
	nextClosed := closedGens(streamClosed)
	for c := 0; c < cycles && ctx.Err() == nil; c++ {
		cpu0, _, err := r.sample()
		if err != nil {
			return nil, err
		}
		bytes0 := r.opBytes()
		cs := closedSlice{phase: closedLoop(ctx, closedDur, callers, nextClosed, r.do)}
		cs.bytes = r.opBytes() - bytes0
		cpu1, rss, err := r.sample()
		if err != nil {
			return nil, err
		}
		cs.cpu, cs.rssKB = cpu1.sub(cpu0), rss
		obs.closed = append(obs.closed, cs)

		arrivals, reqs := r.generate(spec, streamOpenArrivals, streamOpen, c, spec.openRate, openDur)
		from := time.Since(began)
		sl := openSlice{phase: openLoop(ctx, openDur, arrivals, reqs, callers, r.do), from: from, to: from + openDur}
		obs.open = append(obs.open, sl)
		phases = append(phases, cs.phase, sl.phase)
	}
	if bgDone != nil {
		obs.bg = <-bgDone
		phases = append(phases, obs.bg)
	}
	for _, p := range phases {
		obs.attempted += p.attempted
		obs.failed += p.failed
		if obs.firstErr == nil {
			obs.firstErr = p.firstErr
		}
	}
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	if obs.after, err = r.dep.counters(); err != nil {
		return nil, err
	}

	obs.attempted++
	if err := r.finalCheck(obs.after); err != nil {
		obs.failed++
		if obs.firstErr == nil {
			obs.firstErr = err
		}
	}
	if obs.peakRouter, obs.peakPrimaries, err = r.dep.procs(); err != nil {
		return nil, err
	}
	r.disconnect()
	r.dep.close()
	again, err := r.launches(r.cfg.setups-before, false)
	if err != nil {
		return nil, err
	}
	obs.setupS = append(obs.setupS, again...)
	return obs, nil
}

// finalCheck runs once the load has stopped. The router's failure
// handling must not have fired — with no replicas and no faults, a
// failover, stale reject or eviction means the run measured recovery, not
// service — and after write_mixed the verified count of shard 0 must be
// the initial count plus acked inserts minus acked deletes.
func (r *runner) finalCheck(now counters) error {
	if c := now.Router; c.Failovers != 0 || c.StaleRejects != 0 || c.Evictions != 0 {
		return fmt.Errorf("router failure handling fired during the run: %+v", c)
	}
	if r.cfg.spec.kind != opInsert {
		return nil
	}
	vc, err := wire.DialVerifying(r.dep.routerAddr(), r.dep.routerAddr())
	if err != nil {
		return err
	}
	defer vc.Close()
	span := r.ds.plan.Span(0)
	a, err := vc.Aggregate(span)
	if err != nil {
		return fmt.Errorf("verified count of shard 0: %w", err)
	}
	ins, del := r.oracle.liveWritten()
	if want := uint64(r.oracle.countIn(span) + ins - del); a.Count != want {
		return fmt.Errorf("shard 0 holds %d records; initial %d + %d acked inserts - %d acked deletes = %d",
			a.Count, r.oracle.countIn(span), ins, del, want)
	}
	return nil
}

// runWorkload is the whole of one run against a deployment, its answers
// cross-checked against orc.
func runWorkload(cfg *runConfig, ds *dataset, orc *oracle) (*observed, error) {
	r := &runner{cfg: cfg, ds: ds, oracle: orc}
	return r.run()
}

func mb(kb int64) float64 { return float64(kb) / 1024 }

// tailOf is tail with the ten-samples-beyond rule said out loud: a
// percentile resting on fewer is still reported, and flagged.
func tailOf(name string, xs []float64, q float64) float64 {
	v, n, ok := tail(xs, q)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: %s rests on %d samples beyond it, fewer than %d: an anecdote, not a measurement\n", name, n, minBeyond)
	}
	return v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// calmest returns the indices of the ceil(n*share) lowest scores.
func calmest(scores []float64, share float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })
	return idx[:int(math.Ceil(float64(len(idx))*share))]
}

// calmClosed sums ops, time and CPU over the calmest closed slices: those
// with the highest completion rate.
func (o *observed) calmClosed() (ops int, dur time.Duration, cpu procTimes) {
	scores := make([]float64, len(o.closed))
	for i, cs := range o.closed {
		scores[i] = -cs.opsPerSec()
	}
	for _, i := range calmest(scores, calmShare) {
		cs := o.closed[i]
		ops += len(cs.lat)
		dur += cs.dur
		cpu.router += cs.cpu.router
		cpu.primaries += cs.cpu.primaries
		cpu.loadgen += cs.cpu.loadgen
	}
	return ops, dur, cpu
}

// calmOpen returns the calmest share of the open slices: those with the
// lowest median latency.
func (o *observed) calmOpen(share float64) []openSlice {
	scores := make([]float64, len(o.open))
	for i, sl := range o.open {
		scores[i] = median(sl.lat)
		if math.IsNaN(scores[i]) {
			scores[i] = math.Inf(1)
		}
	}
	var out []openSlice
	for _, i := range calmest(scores, share) {
		out = append(out, o.open[i])
	}
	return out
}

// pooled concatenates the slices' latencies, optionally only those with
// the given seam tag (tag < 0 takes all).
func pooled(slices []openSlice, tag int) []float64 {
	var out []float64
	for _, s := range slices {
		if tag < 0 {
			out = append(out, s.lat...)
		} else {
			out = append(out, s.latWhere(uint8(tag))...)
		}
	}
	return out
}

// bgDuring returns the latencies of the background reads with the given
// seam tag that were due inside one of the slices.
func (o *observed) bgDuring(slices []openSlice, tag uint8) []float64 {
	var out []float64
	for i, at := range o.bg.at {
		if o.bg.tag[i] != tag {
			continue
		}
		for _, s := range slices {
			if at >= s.from && at < s.to {
				out = append(out, o.bg.lat[i])
				break
			}
		}
	}
	return out
}

// shard0Reads is the latency sample behind bg_read_p50_ms, taken over the
// given open slices: the background reads that landed on the written
// shard when there are writes, else the slices' own reads that lie in
// shard 0.
func (o *observed) shard0Reads(slices []openSlice) []float64 {
	if o.bg != nil {
		return o.bgDuring(slices, tagShard0)
	}
	return pooled(slices, int(tagShard0))
}

// endToEnd cuts the observation down to the gated metric set.
func (o *observed) endToEnd() map[string]metric {
	var allOps int
	var allBytes int64
	var rss []float64
	for _, cs := range o.closed {
		allOps += len(cs.lat)
		allBytes += cs.bytes
		rss = append(rss, mb(cs.rssKB))
	}
	// The calm rule applied to launches: of the fastest third (three of
	// eight), the slowest.
	setups := sorted(o.setupS)
	return map[string]metric{
		"setup_s":           {quantileSorted(setups, calmShare), "s"},
		"lat_p50_ms":        {median(pooled(o.calmOpen(calmShare), -1)), "ms"},
		"wire_bytes_per_op": {ratio(float64(allBytes), float64(allOps)), "B"},
		"rss_mb":            {median(rss), "MB"},
	}
}

// outside cuts the observation down to the per-layer metrics that are
// read from outside the serving path (source E in README.md).
func (o *observed) outside() map[string]metric {
	ops, dur, cpu := o.calmClosed()
	calm := o.calmOpen(calmShare)
	var allOps, openOps int
	var allDur time.Duration
	for _, cs := range o.closed {
		allOps += len(cs.lat)
		allDur += cs.dur
	}
	for _, sl := range o.open {
		openOps += len(sl.lat)
	}
	b0, b1 := o.before.Burst, o.after.Burst
	c0, c1 := o.before.Commit, o.after.Commit
	frames := float64((b1.GroupedFrames + b1.SoloFrames) - (b0.GroupedFrames + b0.SoloFrames))
	var late []float64
	for _, sl := range o.open {
		late = append(late, sl.lateMs...)
	}
	lateP99 := tailOf("loadgen.late_p99_ms", late, 0.99)
	p99 := tailOf("loadgen.lat_p99_ms", pooled(o.calmOpen(tailShare), -1), 0.99)
	allP99 := tailOf("loadgen.lat_p99_all_ms", pooled(o.open, -1), 0.99)
	quiet, bgP99 := 0.0, 0.0
	if o.bg != nil {
		quiet = median(o.bgDuring(calm, tagOther))
		// Reads due after the warm phase, whatever the slice.
		measured := openSlice{from: o.open[0].from - o.closed[0].dur, to: o.open[len(o.open)-1].to}
		bgP99 = tailOf("loadgen.bg_read_p99_ms", o.bgDuring([]openSlice{measured}, tagShard0), 0.99)
	}
	perOpUs := func(d time.Duration) float64 { return ratio(float64(d)/1e3, float64(ops)) }
	return map[string]metric{
		"ops_s":                        {ratio(float64(ops), dur.Seconds()), "op/s"},
		"cpu_ms_per_op":                {perOpUs(cpu.total()) / 1e3, "ms"},
		"bg_read_p50_ms":               {median(o.shard0Reads(calm)), "ms"},
		"saenet.router.cpu_us_per_op":  {perOpUs(cpu.router), "us"},
		"saenet.primary.cpu_us_per_op": {perOpUs(cpu.primaries), "us"},
		"loadgen.cpu_us_per_op":        {perOpUs(cpu.loadgen), "us"},
		"saenet.router.rss_mb":         {mb(o.peakRouter.hwmKB), "MB"},
		"saenet.primary.rss_mb":        {mb(o.peakPrimaries.hwmKB), "MB"},
		"wire.frames_per_burst":        {ratio(frames, float64(b1.Jobs-b0.Jobs)), "count"},
		"wire.grouped_frame_ratio":     {ratio(float64(b1.GroupedFrames-b0.GroupedFrames), frames), "ratio"},
		"wire.burst_fallbacks":         {float64(b1.Fallbacks - b0.Fallbacks), "count"},
		"core.commit.ops_per_group":    {ratio(float64(c1.Ops-c0.Ops), float64(c1.Groups-c0.Groups)), "count"},
		"wal.fsyncs_per_op":            {ratio(float64(c1.Syncs-c0.Syncs), float64(allOps+openOps)), "count"},
		"router.failovers":             {float64(o.after.Router.Failovers), "count"},
		"router.stale_rejects":         {float64(o.after.Router.StaleRejects), "count"},
		"router.evictions":             {float64(o.after.Router.Evictions), "count"},
		"loadgen.late_p99_ms":          {lateP99, "ms"},
		"loadgen.ops_s_all":            {ratio(float64(allOps), allDur.Seconds()), "op/s"},
		"loadgen.lat_p99_ms":           {p99, "ms"},
		"loadgen.lat_p99_all_ms":       {allP99, "ms"},
		"loadgen.bg_read_p99_ms":       {bgP99, "ms"},
		"loadgen.bg_quiet_p50_ms":      {quiet, "ms"},
	}
}

// describe prints the sample counts behind the figures, so a reader can
// tell a supported percentile from an anecdote.
func (o *observed) describe(w *os.File) {
	ops, dur, _ := o.calmClosed()
	calm := o.calmOpen(calmShare)
	lat := pooled(o.calmOpen(tailShare), -1)
	var allOps int
	for _, cs := range o.closed {
		allOps += len(cs.lat)
	}
	fmt.Fprintf(w, "samples: %d cycles; closed %d ops in all, %d in the calm third (%.1f s); "+
		"open %d ops in all, %d in the calm half with %d beyond their p99; shard-0 reads in the calm third %d\n",
		len(o.closed), allOps, ops, dur.Seconds(), len(pooled(o.open, -1)), len(lat), beyond(len(lat), 0.99), len(o.shard0Reads(calm)))
	// The raw series the calm rule picks from, in the order they ran: a
	// burst shows as a few high values, a slow minute as all of them.
	fmt.Fprintf(w, "launches, s:")
	for _, s := range o.setupS {
		fmt.Fprintf(w, " %.3f", s)
	}
	fmt.Fprintf(w, "\nopen slices, p50 ms:")
	for _, sl := range o.open {
		fmt.Fprintf(w, " %.3f", median(sl.lat))
	}
	fmt.Fprintln(w)
}
