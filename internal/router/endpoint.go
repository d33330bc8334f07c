package router

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sae/internal/shard"
	"sae/internal/wire"
)

// role names what an upstream is asked for; a shard has one endpoint set
// per role, and one upstream address may sit in several of them.
type role uint8

const (
	roleSP       role = iota // record and aggregate reads
	roleTE                   // verification and aggregate tokens
	roleVerified             // stamped (epoch, gen, VT, records) answers
	roleTOM                  // TOM provider evidence
	numRoles
)

var roleNames = [numRoles]string{"SP", "TE", "verified", "TOM"}

func (r role) String() string { return roleNames[r] }

// Reconnect backoff: a failed upstream is retried after backoffMin,
// doubling (plus jitter) up to backoffMax. The cap stays well under a
// chaos harness's restart cadence so a revived process is re-adopted
// within a probe interval or two.
const (
	backoffMin = 25 * time.Millisecond
	backoffMax = 500 * time.Millisecond
)

// maxAttempts bounds how many distinct endpoints one request may fail
// over across before the error goes back to the client.
const maxAttempts = 3

// errStale marks an answer whose generation stamp lags the set's newest
// observed stamp by more than the configured bound. It triggers failover
// to a fresher endpoint WITHOUT evicting the connection — the replica is
// healthy, just behind.
var errStale = errors.New("router: answer exceeds the staleness bound")

// errAttestMismatch marks an upstream that dialed fine but attests a
// different shard or plan than it was configured as. Unlike a dead
// process (which may come back) this is a wiring error: New fails fast
// on it rather than quietly running degraded forever.
var errAttestMismatch = errors.New("router: upstream attestation mismatch")

// freshness is one shard's staleness bar: the newest generation stamp
// observed from ANY of the shard's upstreams, which replicas are measured
// against.
type freshness struct {
	maxGen atomic.Uint64
	maxLag uint64
}

func (f *freshness) stale(gen uint64) bool {
	max := f.maxGen.Load()
	return max > gen && max-gen > f.maxLag
}

// endpoint is one upstream ADDRESS: one pool of pipelined connections,
// one health/backoff/attestation state and one generation stamp, however
// many of its shard's role sets reference it (a combined primary or a
// replica serves SP, TE and verified reads from one process).
// Connections are (re)dialed lazily: a dead endpoint costs nothing until
// its backoff expires, and a revived one is adopted on the next pick or
// probe.
type endpoint struct {
	addr    string
	shard   int
	roles   []string // the role sets that reference it, for Health
	stamped bool     // speaks MsgGenStampReq (a combined primary or a replica)
	fresh   *freshness
	ctrs    *counters

	// attest, when non-nil, is re-checked on every fresh dial: the
	// upstream must report this plan and the endpoint's shard index, so
	// a process restarted with the wrong dataset (or a port reused by a
	// stranger) is rejected instead of adopted.
	attest *shard.Plan

	mu      sync.Mutex
	conns   []*wire.Conn
	next    int
	down    bool
	broken  bool // saw an eviction or markDown since the last clean dial
	retryAt time.Time
	backoff time.Duration

	gen atomic.Uint64 // newest generation stamp observed from this upstream
}

// acquire returns a live connection, evicting dead ones and redialing up
// to want connections. While the endpoint is inside its backoff window
// with no live connections it fails fast.
func (e *endpoint) acquire(want int) (*wire.Conn, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Evict connections whose receive loop has died (the passive half of
	// failure detection: a mid-flight breakage poisons the conn, and it
	// must never be round-robined back into service).
	live := e.conns[:0]
	for _, c := range e.conns {
		if c.Err() != nil {
			c.Close()
			e.ctrs.evictions.Add(1)
			e.broken = true
		} else {
			live = append(live, c)
		}
	}
	clear(e.conns[len(live):])
	e.conns = live
	if len(e.conns) == 0 && e.down && time.Now().Before(e.retryAt) {
		return nil, fmt.Errorf("router: upstream %s (shard %d) is down, retrying after backoff", e.addr, e.shard)
	}
	for len(e.conns) < want {
		c, err := e.dialChecked()
		if err != nil {
			if len(e.conns) > 0 {
				break // serve on what we have
			}
			e.markDownLocked()
			return nil, err
		}
		if e.broken {
			e.ctrs.reconnects.Add(1)
		}
		e.conns = append(e.conns, c)
	}
	e.down = false
	e.next++
	return e.conns[e.next%len(e.conns)], nil
}

// dialTimeout bounds one upstream dial, attestation included. acquire
// dials under the endpoint's lock, which every pick of the shard takes: an
// upstream that swallows SYNs must cost its shard's requests this long,
// not the kernel's connect timeout.
const dialTimeout = 2 * time.Second

// dialChecked dials one connection and, when an attestation is pinned,
// verifies the upstream still reports the expected shard and plan.
func (e *endpoint) dialChecked() (*wire.Conn, error) {
	ctx, cancel := context.WithTimeout(context.Background(), dialTimeout)
	defer cancel()
	c, err := wire.DialCtx(ctx, e.addr)
	if err != nil {
		return nil, err
	}
	if e.attest != nil {
		si, err := c.ShardMapCtx(ctx)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("router: attesting %s: %w", e.addr, err)
		}
		if si.Index != e.shard || !si.Plan.Equal(*e.attest) {
			c.Close()
			return nil, fmt.Errorf("%w: %s attests shard %d of %d, dialed as shard %d",
				errAttestMismatch, e.addr, si.Index, si.Plan.Shards(), e.shard)
		}
	}
	return c, nil
}

// evict drops a connection that failed mid-flight and, if it was the
// last one, marks the endpoint down with backoff.
func (e *endpoint) evict(bad *wire.Conn) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i := slices.Index(e.conns, bad); i >= 0 {
		bad.Close()
		e.ctrs.evictions.Add(1)
		e.broken = true
		e.conns = slices.Delete(e.conns, i, i+1)
	}
	if len(e.conns) == 0 {
		e.markDownLocked()
	}
}

// markDownLocked starts (or extends) the backoff window: exponential
// with jitter so a fleet of routers does not stampede a restarting
// upstream in lockstep.
func (e *endpoint) markDownLocked() {
	e.down = true
	e.broken = true
	if e.backoff < backoffMin {
		e.backoff = backoffMin
	} else if e.backoff *= 2; e.backoff > backoffMax {
		e.backoff = backoffMax
	}
	jitter := time.Duration(rand.Int63n(int64(e.backoff)/2 + 1))
	e.retryAt = time.Now().Add(e.backoff + jitter)
}

// markUp records a successful round trip: the endpoint is healthy and
// its backoff resets.
func (e *endpoint) markUp() {
	e.mu.Lock()
	e.down = false
	e.backoff = 0
	e.mu.Unlock()
}

func (e *endpoint) isDown() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.down && time.Now().Before(e.retryAt)
}

// closeAll closes every pooled connection (router shutdown).
func (e *endpoint) closeAll() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	var first error
	for _, c := range e.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.conns = nil
	return first
}

// noteGen records a stamp observed from this upstream, raises its shard's
// freshness bar and reports whether the upstream now exceeds the
// staleness bound.
func (e *endpoint) noteGen(gen uint64) (stale bool) {
	e.gen.Store(gen)
	for {
		cur := e.fresh.maxGen.Load()
		if gen <= cur || e.fresh.maxGen.CompareAndSwap(cur, gen) {
			break
		}
	}
	return e.fresh.stale(gen)
}

func (e *endpoint) isStale() bool {
	return e.stamped && e.fresh.stale(e.gen.Load())
}

// probe is one health pass over the upstream: past its backoff window it
// is redialed (with attestation), and a stamped one is asked for its
// generation stamp so the shard's freshness bar stays current even when
// no client traffic is flowing.
func (e *endpoint) probe(timeout time.Duration) {
	if e.isDown() {
		return // still inside the backoff window
	}
	c, err := e.acquire(1)
	if err != nil || !e.stamped {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	gen, err := c.GenStamp(ctx)
	timedOut := ctx.Err() != nil
	cancel()
	if err != nil {
		// A typed server error (upstream does not speak the stamp) and a
		// probe timeout (slow, not provably dead) leave the connection
		// alone; a transport failure evicts it.
		var se *wire.ServerError
		if !errors.As(err, &se) && !timedOut {
			e.evict(c)
		}
		return
	}
	e.noteGen(gen)
	e.markUp()
}

// endpointSet is one shard's upstreams for one role (SP reads, TE
// tokens, verified queries, TOM): the primary plus any replicas, with
// pick/failover/hedging across them. The endpoints are shared with the
// shard's other role sets.
type endpointSet struct {
	role  role
	shard int
	eps   []*endpoint
	next  atomic.Uint32

	conns      int
	hedgeAfter time.Duration
	ctrs       *counters
}

// pick chooses the next endpoint to try, round-robin with two quality
// passes: first the healthy-and-fresh, then anything not in backoff.
// Endpoints in skip (already tried this request) are never returned.
func (s *endpointSet) pick(skip []*endpoint) *endpoint {
	n := len(s.eps)
	if n == 0 {
		return nil
	}
	start := int(s.next.Add(1))
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			ep := s.eps[(start+i)%n]
			if slices.Contains(skip, ep) || ep.isDown() || (pass == 0 && ep.isStale()) {
				continue
			}
			return ep
		}
	}
	// Everything usable is down or tried; hand back the first untried
	// endpoint anyway — its acquire fails fast inside backoff, and a
	// just-revived process gets adopted without waiting for the prober.
	for i := 0; i < n; i++ {
		ep := s.eps[(start+i)%n]
		if !slices.Contains(skip, ep) {
			return ep
		}
	}
	return nil
}

// opFunc is one request attempt against one upstream connection,
// returning the reply payload. ep is supplied so verified ops can record
// the generation stamps they parse.
type opFunc func(ctx context.Context, c *wire.Conn, ep *endpoint) ([]byte, error)

// do runs op with bounded failover: up to maxAttempts distinct endpoints
// are tried. A typed ServerError never fails over (it came over a
// healthy connection and would recur anywhere); a parent-context expiry
// never retries (the client's budget is spent); a stale answer retries
// without eviction; everything else evicts the implicated connection and
// moves on. With hedging configured, each attempt may race two
// endpoints.
func (s *endpointSet) do(parent context.Context, op opFunc) ([]byte, error) {
	// At most one endpoint per attempt plus its hedge: the list never
	// outgrows its backing array.
	tried := make([]*endpoint, 0, 2*maxAttempts)
	var lastErr error
	for try := 0; try < maxAttempts; try++ {
		ep := s.pick(tried)
		if ep == nil {
			break
		}
		tried = append(tried, ep)
		var v []byte
		var err error
		if s.hedgeAfter > 0 && len(s.eps) > 1 {
			v, err = s.attemptHedged(parent, ep, &tried, op)
		} else {
			v, err = s.attempt(parent, ep, op)
		}
		if err == nil {
			return v, nil
		}
		var se *wire.ServerError
		if errors.As(err, &se) {
			return nil, err
		}
		if parent.Err() != nil {
			return nil, err
		}
		lastErr = err
		s.ctrs.failovers.Add(1)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("router: shard %d has no usable %s upstream", s.shard, s.role)
	}
	return nil, lastErr
}

// attempt runs op once against ep under a per-attempt context.
func (s *endpointSet) attempt(parent context.Context, ep *endpoint, op opFunc) ([]byte, error) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	return s.attemptOn(ctx, ep, op)
}

// attemptOn is attempt with caller-owned context (the hedged race keeps
// both legs' contexts alive until a winner is chosen).
func (s *endpointSet) attemptOn(ctx context.Context, ep *endpoint, op opFunc) ([]byte, error) {
	c, err := ep.acquire(s.conns)
	if err != nil {
		return nil, err
	}
	v, err := op(ctx, c, ep)
	if err == nil {
		ep.markUp()
		return v, nil
	}
	if errors.Is(err, errStale) {
		s.ctrs.staleRejects.Add(1)
		return nil, err
	}
	var se *wire.ServerError
	if errors.As(err, &se) {
		return nil, err
	}
	if ctx.Err() == nil {
		// Not our cancellation and not a server-reported failure: the
		// connection itself is implicated.
		ep.evict(c)
	}
	return nil, err
}

// attemptHedged races ep against a second endpoint started hedgeAfter
// later: the first success wins and the loser's context is cancelled,
// which abandons its in-flight request (the wire layer drops the pending
// entry, so the late response frame is discarded, never double-
// delivered). The hedge endpoint is added to tried.
func (s *endpointSet) attemptHedged(parent context.Context, ep1 *endpoint, tried *[]*endpoint, op opFunc) ([]byte, error) {
	type legResult struct {
		v     []byte
		err   error
		hedge bool
	}
	ch := make(chan legResult, 2)
	ctx1, cancel1 := context.WithCancel(parent)
	defer cancel1()
	go func() {
		v, err := s.attemptOn(ctx1, ep1, op)
		ch <- legResult{v, err, false}
	}()
	timer := time.NewTimer(s.hedgeAfter)
	defer timer.Stop()
	var cancel2 context.CancelFunc
	hedged := false
	outstanding := 1
	var firstErr error
	for outstanding > 0 {
		select {
		case <-timer.C:
			if hedged {
				continue
			}
			ep2 := s.pick(*tried)
			if ep2 == nil {
				continue
			}
			*tried = append(*tried, ep2)
			hedged = true
			s.ctrs.hedges.Add(1)
			var ctx2 context.Context
			ctx2, cancel2 = context.WithCancel(parent)
			defer cancel2()
			outstanding++
			go func() {
				v, err := s.attemptOn(ctx2, ep2, op)
				ch <- legResult{v, err, true}
			}()
		case res := <-ch:
			outstanding--
			if res.err == nil {
				if res.hedge {
					s.ctrs.hedgesWon.Add(1)
					cancel1()
				} else if hedged {
					s.ctrs.hedgesLost.Add(1)
					cancel2()
				}
				// A still-outstanding loser finishes into the buffered
				// channel and is garbage collected; nothing blocks.
				return res.v, nil
			}
			if firstErr == nil {
				firstErr = res.err
			}
		}
	}
	return nil, firstErr
}
