// Package router implements the deployment tier the ROADMAP calls the
// missing piece of the horizontal story: a stateless, untrusted router
// process with ONE client-facing address. It speaks the single-system
// wire protocol to clients — every query frame has one row in the frame
// table (table.go: MsgQuery, MsgVTRequest, MsgAggQuery, MsgAggTokenReq,
// MsgVerifiedQuery, MsgVerifiedAgg, plus the locally answered
// MsgShardMapReq, MsgGenStampReq and MsgReshardCutover) —
// scatters every request to the overlapping shards over pooled
// pipelined upstream connections (plain wire.Conn: the router relays
// bytes and needs no typed client), gathers in shard order and streams
// the merged response back — so an unmodified wire.VerifyingClient can
// query a sharded deployment exactly as if it were a single SP/TE pair,
// with bit-identical results and tokens to a client-side scatter
// (wire.ShardedVerifyingClient).
//
// Each shard may additionally run read replicas (Config.Replicas). An
// upstream address is ONE endpoint — one connection pool, one health and
// backoff state, one generation stamp — referenced by every role set it
// serves; the router treats the primary and its replicas as one endpoint
// set per shard and role: requests round-robin across healthy endpoints,
// a failed endpoint is evicted and retried with exponential backoff plus
// jitter, an in-flight failure fails over to a sibling (bounded
// attempts), and — when Config.HedgeAfter is set — a slow endpoint is
// raced against a sibling, the loser cancelled. A health prober redials
// downed endpoints and tracks every stamped endpoint's generation so
// answers lagging the shard's newest observed generation by more than
// Config.MaxLag are rejected and retried elsewhere.
//
// The whole upstream fabric — the attested plan and every endpoint set —
// lives in ONE immutable topology value behind an atomic pointer. Every
// request snapshots the pointer once and runs entirely against that
// snapshot, which is what makes online resharding seam-safe: a cutover
// (Cutover / MsgReshardCutover) builds and attests the successor
// topology on the side, swaps the pointer, and in-flight requests finish
// against the epoch they started under while every new pick lands on the
// new one. The displaced topology's connections are closed after a grace
// period sized to the upstream timeout.
//
// # Trust argument
//
// The router is NOT a trusted party, and neither are the replicas it
// fails over to. On the result path they are exactly as untrusted as
// the SP: anything router or replica could do to the record stream —
// suppress a shard's sub-result, narrow a sub-range at a partition
// seam, merge shards out of order, scatter under a forged plan, or
// serve from a torn or doctored copy of the dataset — yields a record
// stream whose digest XOR no longer matches the token (or violates the
// key-order contract), so the client rejects. That holds because the
// token side is pure aggregation: every shard TE holds only its own
// partition, so the XOR of the per-shard tokens for the clamped
// sub-ranges IS the token a single TE over the whole dataset would have
// issued. The ONLY property a replica could silently bend that the XOR
// check cannot catch is freshness — serving a correct answer for an old
// generation — which is why every verified answer carries its plan epoch
// and generation stamp: the router bounds staleness against the newest
// stamp it has observed, and a paranoid client enforces its own
// monotonic lexicographic (epoch, gen) floor
// (the verified client's QueryAtLeast), so even a rogue router replaying
// pre-reshard answers is caught. As everywhere in this wire layer, the
// client↔TE byte stream itself is assumed authenticated end-to-end — a
// relay that can rewrite TE token bytes is the paper's
// compromised-TE-channel case, out of model here and solved by
// transport authentication in a hardened deployment, not by the
// protocol.
//
// The router carries the SAE protocol only. TOM, the paper's baseline,
// runs in-process (package tom) and has no frames on the wire.
package router

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sae/internal/shard"
	"sae/internal/wire"
)

// Config parameterizes a router.
type Config struct {
	// SPs and TEs list the upstream shard servers, one address per shard
	// in shard order (exactly the lists a ShardedVerifyingClient dials).
	// A combined primary (one process serving both halves) simply lists
	// the same address in both slots.
	SPs, TEs []string
	// Replicas optionally lists each shard's read replicas: Replicas[i]
	// are addresses of replica servers for shard i (wire.ServeReplica).
	// Replicas join the shard's SP-read, TE-token and verified-query
	// endpoint sets; a replica that is down at startup is adopted later
	// by the health prober.
	Replicas [][]string
	// Conns is the number of pooled pipelined connections the router
	// keeps to every upstream (default 2). Requests round-robin across
	// the pool; each connection additionally pipelines many requests.
	Conns int
	// UpstreamTimeout bounds every upstream sub-request (default 30s;
	// negative disables). A shard that exceeds it fails the client
	// request with an error — never a silently truncated result. It also
	// sizes the grace period before a reshard cutover closes the
	// displaced topology's connections.
	UpstreamTimeout time.Duration
	// HedgeAfter, when positive, races a second endpoint of the same
	// shard after this delay if the first has not answered; the first
	// response wins and the loser is cancelled. Zero disables hedging.
	HedgeAfter time.Duration
	// MaxLag bounds replica staleness in commit groups: a verified
	// answer stamped more than MaxLag generations behind the newest
	// stamp the router has observed for that shard is rejected and the
	// request retried on a fresher endpoint (default 128).
	MaxLag uint64
	// ProbeInterval is the health prober's cadence: redialing downed
	// endpoints and refreshing generation stamps (default 100ms;
	// negative disables probing).
	ProbeInterval time.Duration
	// Logf receives serving diagnostics (nil = silent).
	Logf func(string, ...any)
}

// DefaultUpstreamTimeout bounds upstream sub-requests when the Config
// does not say otherwise.
const DefaultUpstreamTimeout = 30 * time.Second

// DefaultMaxLag is the staleness bound (in commit groups) applied when
// the Config does not set one.
const DefaultMaxLag = 128

// DefaultProbeInterval is the health prober's cadence when the Config
// does not set one.
const DefaultProbeInterval = 100 * time.Millisecond

// topology is one immutable generation of the router's upstream fabric:
// the attested plan, every upstream address once, and the per-role
// endpoint sets over them, all built together and swapped together.
// Requests snapshot one topology and never observe a cutover mid-flight.
type topology struct {
	plan  shard.Plan
	eps   []*endpoint  // every upstream address, once
	fresh []*freshness // per shard
	// sets[role][shard]. The verified sets hold each shard's replicas plus
	// its primary when the primary serves both halves (SPs[i] == TEs[i] —
	// only a process holding SP and TE together can stamp one atomic
	// (epoch, gen, VT, records) quadruple).
	sets [numRoles][]*endpointSet
	// split is set when some shard's SP and TE are separate processes: a
	// verified aggregate then runs as its two legs (row.split).
	split bool
}

// closeAll closes every upstream connection.
func (t *topology) closeAll() error {
	var first error
	for _, ep := range t.eps {
		if err := ep.closeAll(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// probe is one prober tick: one health pass per upstream address.
func (t *topology) probe(timeout time.Duration) {
	for _, ep := range t.eps {
		ep.probe(timeout)
	}
}

// Router is the client-facing scatter-gather endpoint. It keeps no
// per-request state beyond in-flight gathers and holds no data: closing
// and restarting one (or running several behind a TCP load balancer) is
// always safe.
type Router struct {
	cfg  Config
	topo atomic.Pointer[topology]
	srv  *wire.Server
	ctrs counters

	// cutoverMu serializes cutovers; retiring holds displaced topologies
	// until their grace timers (or Close) release their connections.
	cutoverMu sync.Mutex
	retiring  []*topology

	proberStop chan struct{}
	proberDone chan struct{}

	// tamper carries the adversarial-test hooks; nil in production. See
	// tamper.go. Atomic because tests flip it between requests while
	// handler goroutines of earlier requests may still be winding down.
	tamper atomic.Pointer[tamper]
}

// join registers addr as one of shard i's upstreams for role, creating its
// endpoint the first time the address is seen.
func (r *Router) join(t *topology, ro role, i int, addr string, stamped bool) *endpoint {
	idx := slices.IndexFunc(t.eps, func(ep *endpoint) bool { return ep.shard == i && ep.addr == addr })
	if idx < 0 {
		idx = len(t.eps)
		t.eps = append(t.eps, &endpoint{addr: addr, shard: i, fresh: t.fresh[i], ctrs: &r.ctrs})
	}
	ep := t.eps[idx]
	ep.stamped = ep.stamped || stamped
	ep.roles = append(ep.roles, ro.String())
	set := t.sets[ro][i]
	set.eps = append(set.eps, ep)
	return ep
}

// buildTopology dials every primary upstream and cross-checks the
// deployment's shard attestations exactly like a shard-aware client
// would: all TEs must agree on one plan and their dialed indices, and
// the plan must match the address lists. The TE-attested plan drives all
// scattering and is pinned on every endpoint, so a process that restarts
// with the wrong dataset is rejected on redial. Replicas are dialed
// best-effort (a dead replica is adopted later by the prober), but a
// replica that answers with a mismatched attestation fails construction
// — that is a wiring error, not an outage. On error the half-built
// topology's connections are closed before returning.
func (r *Router) buildTopology(spAddrs, teAddrs []string, replicas [][]string) (*topology, error) {
	cfg := &r.cfg
	t := &topology{}
	ok := false
	defer func() {
		if !ok {
			t.closeAll()
		}
	}()
	for i := range spAddrs {
		t.fresh = append(t.fresh, &freshness{maxLag: cfg.MaxLag})
		for ro := range t.sets {
			t.sets[ro] = append(t.sets[ro], &endpointSet{
				role: role(ro), shard: i, conns: cfg.Conns, hedgeAfter: cfg.HedgeAfter, ctrs: &r.ctrs,
			})
		}
	}

	// Primaries first: their attestations establish the plan.
	spConns := make([]*wire.Conn, len(spAddrs))
	teConns := make([]*wire.Conn, len(spAddrs))
	for i := range spAddrs {
		combined := spAddrs[i] == teAddrs[i]
		t.split = t.split || !combined
		sp := r.join(t, roleSP, i, spAddrs[i], combined)
		te := r.join(t, roleTE, i, teAddrs[i], combined)
		if combined {
			r.join(t, roleVerified, i, spAddrs[i], true)
		}
		var err error
		if spConns[i], err = sp.acquire(cfg.Conns); err != nil {
			return nil, fmt.Errorf("router: shard %d SP: %w", i, err)
		}
		if teConns[i], err = te.acquire(cfg.Conns); err != nil {
			return nil, fmt.Errorf("router: shard %d TE: %w", i, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	plan, err := wire.VerifyShardAttestations(ctx, spConns, teConns)
	cancel()
	if err != nil {
		return nil, fmt.Errorf("router: upstream attestation: %w", err)
	}
	t.plan = plan

	// Replicas join under the now-known plan, pinned on every endpoint:
	// from here on, every fresh dial (including prober re-adoption after a
	// crash) re-verifies the upstream's shard index and plan before
	// trusting it with traffic.
	var reps []*endpoint
	for i := range replicas {
		for _, addr := range replicas[i] {
			r.join(t, roleSP, i, addr, true)
			r.join(t, roleTE, i, addr, true)
			reps = append(reps, r.join(t, roleVerified, i, addr, true))
		}
	}
	for _, ep := range t.eps {
		ep.attest = &t.plan
	}
	// Best-effort eager replica dial: a dead replica only logs (the
	// prober adopts it when it comes up), a misattested one is fatal.
	for _, ep := range reps {
		if _, err := ep.acquire(1); err != nil {
			if errors.Is(err, errAttestMismatch) {
				return nil, err
			}
			cfg.Logf("router: shard %d replica %s not yet reachable: %v", ep.shard, ep.addr, err)
		}
	}
	ok = true
	return t, nil
}

// New builds a router over the configured upstreams, verifying their
// shard attestations before serving a single request.
func New(cfg Config) (*Router, error) {
	if len(cfg.SPs) == 0 || len(cfg.SPs) != len(cfg.TEs) {
		return nil, fmt.Errorf("router: %d SP addresses for %d TE addresses", len(cfg.SPs), len(cfg.TEs))
	}
	if len(cfg.Replicas) != 0 && len(cfg.Replicas) != len(cfg.SPs) {
		return nil, fmt.Errorf("router: replica lists for %d shards, have %d shards", len(cfg.Replicas), len(cfg.SPs))
	}
	if cfg.Conns < 1 {
		cfg.Conns = 2
	}
	if cfg.UpstreamTimeout == 0 {
		cfg.UpstreamTimeout = DefaultUpstreamTimeout
	}
	if cfg.MaxLag == 0 {
		cfg.MaxLag = DefaultMaxLag
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	r := &Router{cfg: cfg}
	t, err := r.buildTopology(cfg.SPs, cfg.TEs, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	r.topo.Store(t)

	if cfg.ProbeInterval > 0 {
		r.proberStop = make(chan struct{})
		r.proberDone = make(chan struct{})
		go r.prober()
	}
	return r, nil
}

// Cutover atomically swaps the router onto a successor topology: the
// new upstreams are dialed and their shard attestations verified BEFORE
// the swap, the attested plan must Equal the ordered one (geometry AND
// epoch — wire.VerifyShardAttestations runs under the epoch-aware
// comparison, so upstreams still attesting the old topology fail here),
// and the ordered epoch must be strictly higher than the serving one, so
// a replayed cutover carrying a stale attested plan is rejected outright.
// In-flight requests finish against the topology they snapshotted; its
// connections close after a grace period sized to the upstream timeout.
func (r *Router) Cutover(cut wire.Cutover) error {
	if cut.Plan.Shards() != len(cut.Shards) {
		return fmt.Errorf("router: cutover lists %d shards under a %d-shard plan", len(cut.Shards), cut.Plan.Shards())
	}
	r.cutoverMu.Lock()
	defer r.cutoverMu.Unlock()
	old := r.topo.Load()
	if cut.Plan.Epoch() <= old.plan.Epoch() {
		return fmt.Errorf("router: cutover to epoch %d rejected; already serving epoch %d (stale plan replay?)",
			cut.Plan.Epoch(), old.plan.Epoch())
	}
	spAddrs := make([]string, len(cut.Shards))
	teAddrs := make([]string, len(cut.Shards))
	replicas := make([][]string, len(cut.Shards))
	for i, s := range cut.Shards {
		if len(s.SPs) == 0 || len(s.TEs) == 0 {
			return fmt.Errorf("router: cutover shard %d has no SP or TE endpoints", i)
		}
		spAddrs[i] = s.SPs[0]
		teAddrs[i] = s.TEs[0]
		replicas[i] = s.SPs[1:]
	}
	next, err := r.buildTopology(spAddrs, teAddrs, replicas)
	if err != nil {
		return fmt.Errorf("router: cutover to epoch %d: %w", cut.Plan.Epoch(), err)
	}
	if !next.plan.Equal(cut.Plan) {
		next.closeAll()
		return fmt.Errorf("router: cutover upstreams attest %v, ordered %v", next.plan, cut.Plan)
	}
	r.topo.Store(next)
	r.ctrs.cutovers.Add(1)
	r.retiring = append(r.retiring, old)
	grace := r.cfg.UpstreamTimeout
	if grace <= 0 {
		grace = DefaultUpstreamTimeout
	}
	time.AfterFunc(grace, func() {
		r.cutoverMu.Lock()
		for i, t := range r.retiring {
			if t == old {
				r.retiring = append(r.retiring[:i], r.retiring[i+1:]...)
				break
			}
		}
		r.cutoverMu.Unlock()
		old.closeAll()
	})
	r.cfg.Logf("router: cut over to %v (displaced epoch %d drains for %v)", next.plan, old.plan.Epoch(), grace)
	return nil
}

// prober periodically redials downed endpoints (re-verifying their
// attestation) and refreshes stamped endpoints' generations, so
// failover targets are warm and the staleness bar is current even
// across idle periods. Each pass runs over the then-current topology.
func (r *Router) prober() {
	defer close(r.proberDone)
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	probeTimeout := r.cfg.ProbeInterval * 5
	if probeTimeout < time.Second {
		probeTimeout = time.Second
	}
	for {
		select {
		case <-r.proberStop:
			return
		case <-t.C:
			r.topo.Load().probe(probeTimeout)
		}
	}
}

// Serve starts the client-facing endpoint on addr (":0" picks a port).
func (r *Router) Serve(addr string) error {
	if r.srv != nil {
		return fmt.Errorf("router: already serving on %s", r.srv.Addr())
	}
	srv, err := wire.Serve(addr, r.handle, r.cfg.Logf)
	if err != nil {
		return err
	}
	r.srv = srv
	return nil
}

// Addr returns the client-facing address once Serve has been called.
func (r *Router) Addr() string { return r.srv.Addr() }

// Plan returns the TE-attested partition plan the router currently
// scatters under.
func (r *Router) Plan() shard.Plan { return r.topo.Load().plan }

// Shards returns the current upstream shard count.
func (r *Router) Shards() int { return r.topo.Load().plan.Shards() }

// Close stops the prober and the client-facing server, then closes
// every upstream connection — the serving topology's and any displaced
// ones still inside their cutover grace window.
func (r *Router) Close() error {
	if r.proberStop != nil {
		close(r.proberStop)
		<-r.proberDone
		r.proberStop = nil
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if r.srv != nil {
		keep(r.srv.Close())
	}
	r.cutoverMu.Lock()
	retiring := r.retiring
	r.retiring = nil
	r.cutoverMu.Unlock()
	for _, t := range retiring {
		keep(t.closeAll())
	}
	if t := r.topo.Load(); t != nil {
		keep(t.closeAll())
	}
	return first
}

// reqCtx builds the context bounding one client request's upstream
// fan-out.
func (r *Router) reqCtx() (context.Context, context.CancelFunc) {
	if r.cfg.UpstreamTimeout > 0 {
		return context.WithTimeout(context.Background(), r.cfg.UpstreamTimeout)
	}
	return context.WithCancel(context.Background())
}
