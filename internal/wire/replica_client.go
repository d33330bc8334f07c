package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"sae/internal/digest"
	"sae/internal/record"
	"sae/internal/replica"
	"sae/internal/wal"
)

// GenStamp asks the server for its generation stamp: the sequence of the
// last commit group folded into its state. Routers probe it to bound
// replica staleness; paranoid clients compare it across reads.
func (c *Conn) GenStamp(ctx context.Context) (uint64, error) {
	p, err := c.ask(ctx, MsgGenStampReq, nil, MsgGenStamp)
	if err != nil {
		return 0, err
	}
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: malformed generation stamp response", ErrProtocol)
	}
	return binary.BigEndian.Uint64(p), nil
}

// Snapshot fetches a primary's bootstrap snapshot: its shard attestation
// and its sequence-stamped dump in the checkpoint's byte format, which
// core.LoadSnapshot loads. The dump aliases the response payload p, which
// is the caller's to Release once the dump is loaded.
func (c *Conn) Snapshot(ctx context.Context) (si ShardInfo, dump, p []byte, err error) {
	if p, err = c.ask(ctx, MsgReplicaSnapReq, nil, MsgReplicaSnap); err != nil {
		return ShardInfo{}, nil, nil, err
	}
	si, dump, err = DecodeReplicaSnap(p)
	return si, dump, p, err
}

// Pull fetches up to max commit groups after the tailer's sequence from a
// primary. snapshotNeeded reports the sequence has fallen out of the
// primary's retention window.
func (c *Conn) Pull(ctx context.Context, after uint64, max int) ([]wal.Group, bool, error) {
	p, err := c.ask(ctx, MsgReplicaPull, EncodeReplicaPull(after, max), MsgReplicaGroups)
	if err != nil {
		return nil, false, err
	}
	return DecodeReplicaGroups(p)
}

// BootstrapReplica dials a primary, pulls one snapshot and builds a
// replica from it, returning the primary's shard attestation so the
// caller can serve it onward. The connection is not retained — start a
// ReplicaFeed to keep the replica current.
func BootstrapReplica(primaryAddr string) (*replica.Replica, ShardInfo, error) {
	c, err := Dial(primaryAddr)
	if err != nil {
		return nil, ShardInfo{}, err
	}
	defer c.Close()
	si, dump, p, err := c.Snapshot(context.Background())
	if err != nil {
		return nil, ShardInfo{}, fmt.Errorf("wire: bootstrapping replica from %s: %w", primaryAddr, err)
	}
	rep, err := replica.NewFromSnapshot(dump)
	Release(p)
	if err != nil {
		return nil, ShardInfo{}, err
	}
	return rep, si, nil
}

// feedIdleSleep is how long the feed dozes after draining the primary's
// groups; feedRedialMax caps the reconnect backoff after a lost primary.
const (
	feedIdleSleep = 2 * time.Millisecond
	feedRedialMax = 500 * time.Millisecond
)

// ReplicaFeed keeps one replica current against its primary: a pull loop
// that applies whole commit groups, re-bootstraps from a snapshot when it
// falls out of the retention window (or hits a gap), and redials with
// backoff when the primary goes away — the replica keeps serving its last
// generation throughout.
type ReplicaFeed struct {
	rep  *replica.Replica
	addr string
	logf func(string, ...any)
	// ctx bounds every dial and round trip of the loop; stop cancels it,
	// so Close returns even behind a primary that stopped answering.
	ctx    context.Context
	stop   context.CancelFunc
	done   chan struct{}
	resets atomic.Int64
}

// StartReplicaFeed spins up the feed loop for rep against the primary at
// addr.
func StartReplicaFeed(rep *replica.Replica, primaryAddr string, logf func(string, ...any)) *ReplicaFeed {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	f := &ReplicaFeed{rep: rep, addr: primaryAddr, logf: logf, done: make(chan struct{})}
	f.ctx, f.stop = context.WithCancel(context.Background())
	go f.run()
	return f
}

// Resets returns how many times the feed has re-bootstrapped the
// replica from a snapshot: behind the primary's retention window, or
// after a group failed to apply.
func (f *ReplicaFeed) Resets() int64 { return f.resets.Load() }

// Close stops the feed loop and waits for it to exit. The replica stays
// valid and keeps serving its last generation.
func (f *ReplicaFeed) Close() {
	f.stop()
	<-f.done
}

func (f *ReplicaFeed) sleep(d time.Duration) bool {
	select {
	case <-f.ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}

func (f *ReplicaFeed) run() {
	defer close(f.done)
	backoff := 10 * time.Millisecond
	for f.ctx.Err() == nil {
		c, err := DialCtx(f.ctx, f.addr)
		if err != nil {
			f.logf("replica feed: dialing %s: %v (retrying in %v)", f.addr, err, backoff)
			if !f.sleep(backoff) {
				return
			}
			if backoff *= 2; backoff > feedRedialMax {
				backoff = feedRedialMax
			}
			continue
		}
		backoff = 10 * time.Millisecond
		f.tail(c)
		c.Close()
	}
}

// tail runs the pull loop over one connection until it breaks or the
// feed stops.
func (f *ReplicaFeed) tail(c *Conn) {
	for f.ctx.Err() == nil {
		gs, snapshotNeeded, err := c.Pull(f.ctx, f.rep.Seq(), 64)
		if err != nil {
			f.logf("replica feed: pulling from %s: %v", f.addr, err)
			return
		}
		if snapshotNeeded {
			f.logf("replica feed: at %d, behind %s's retention window (re-bootstrapping)", f.rep.Seq(), f.addr)
			if !f.reset(c) {
				return
			}
			continue
		}
		if len(gs) == 0 {
			if !f.sleep(feedIdleSleep) {
				return
			}
			continue
		}
		if err := f.rep.ApplyGroups(gs); err != nil {
			// A gap (retention raced our pull) heals through the snapshot
			// path on the next iteration; anything else may have left the
			// replica torn mid-group, and only a snapshot reset makes it
			// whole again — either way, force the re-bootstrap.
			f.logf("replica feed: applying groups: %v (re-bootstrapping)", err)
			if !f.reset(c) {
				return
			}
		}
	}
}

// reset re-bootstraps the replica from a snapshot pulled over c and
// counts it; false means the connection should be dropped.
func (f *ReplicaFeed) reset(c *Conn) bool {
	_, dump, p, err := c.Snapshot(f.ctx)
	if err != nil {
		f.logf("replica feed: re-snapshot from %s: %v", f.addr, err)
		return false
	}
	err = f.rep.Reset(dump)
	Release(p)
	if err != nil {
		f.logf("replica feed: resetting from snapshot: %v", err)
		return false
	}
	f.resets.Add(1)
	return true
}

// ErrStaleRead reports a verified answer whose generation stamp fell
// below the caller's required floor, or whose plan epoch regressed below
// one the client has already observed.
var ErrStaleRead = errors.New("wire: verified answer is staler than required")

// VerifiedClient issues stamped verified queries: one frame returns
// records, the TE token, the plan epoch and the generation stamp as an
// atomic quadruple, verified locally before being returned. It remembers
// the newest (epoch, gen) it has seen, ordered lexicographically —
// sequence numbers restart in a new topology's shards, so a fresh read
// after a reshard may legitimately carry a smaller gen under a larger
// epoch, but an answer whose epoch is BELOW the observed floor is a
// replay of the pre-reshard deployment and is rejected however large its
// gen.
type VerifiedClient struct {
	*Conn
	lastEpoch uint64 // guarded by Conn.mu
	lastGen   uint64 // guarded by Conn.mu
}

// DialVerified connects to any server speaking MsgVerifiedQuery — a
// primary, a replica, or a router fronting either.
func DialVerified(addr string) (*VerifiedClient, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	return &VerifiedClient{Conn: c}, nil
}

// Gen returns the newest generation stamp observed on this client
// (within the newest observed epoch).
func (c *VerifiedClient) Gen() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastGen
}

// Epoch returns the newest plan epoch observed on this client.
func (c *VerifiedClient) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastEpoch
}

// observe advances the lexicographic (epoch, gen) floor and reports
// whether the answer passed it: an epoch regression is a stale-topology
// replay; within one epoch the gen floor is only recorded here and
// enforced by QueryAtLeast.
func (c *VerifiedClient) observe(epoch, gen uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case epoch > c.lastEpoch:
		c.lastEpoch, c.lastGen = epoch, gen
	case epoch == c.lastEpoch:
		if gen > c.lastGen {
			c.lastGen = gen
		}
	default:
		return false
	}
	return true
}

// Query runs one verified query: the records are checked against the
// returned token (the unchanged XOR check) before being returned with
// their generation stamp.
func (c *VerifiedClient) Query(q record.Range) ([]record.Record, uint64, error) {
	return c.QueryCtx(context.Background(), q)
}

// QueryCtx is Query bounded by a context.
func (c *VerifiedClient) QueryCtx(ctx context.Context, q record.Range) ([]record.Record, uint64, error) {
	raw, err := c.QueryRawVerifiedCtx(ctx, q)
	if err != nil {
		return nil, 0, err
	}
	defer Release(raw) // the records returned below are decoded copies
	epoch, gen, vt, recsRaw, err := DecodeVerifiedResult(raw)
	if err != nil {
		return nil, 0, err
	}
	recs, err := verifyRecords([]record.Range{q}, [][]byte{recsRaw}, []digest.Digest{vt})
	if err != nil {
		return nil, gen, err
	}
	if !c.observe(epoch, gen) {
		return nil, gen, fmt.Errorf("%w: answer from plan epoch %d after epoch %d was observed",
			ErrStaleRead, epoch, c.Epoch())
	}
	return recs[0], gen, nil
}

// QueryAtLeast is Query plus a freshness floor: an answer stamped below
// minGen fails with ErrStaleRead even though it verified — the defense
// against a router (or any relay) replaying an old replica's answer
// after the client has already seen a newer generation. The floor is
// epoch-scoped: generation sequences restart when a reshard publishes a
// new topology, so an answer under a STRICTLY NEWER epoch satisfies any
// gen floor (its state includes everything the old epoch committed),
// while an old-epoch answer is already rejected inside Query.
func (c *VerifiedClient) QueryAtLeast(q record.Range, minGen uint64) ([]record.Record, uint64, error) {
	epochBefore := c.Epoch()
	recs, gen, err := c.Query(q)
	if err != nil {
		return nil, gen, err
	}
	if c.Epoch() == epochBefore && gen < minGen {
		return nil, gen, fmt.Errorf("%w: stamped %d, required >= %d", ErrStaleRead, gen, minGen)
	}
	return recs, gen, nil
}

// QueryRawVerifiedCtx fetches one verified result still in wire form
// (epoch + gen + VT + encoded records) without verifying — for callers
// that relay or time the raw answer; end clients should use QueryCtx.
// The payload is the caller's, to Release or to drop.
func (c *VerifiedClient) QueryRawVerifiedCtx(ctx context.Context, q record.Range) ([]byte, error) {
	return c.ask(ctx, MsgVerifiedQuery, EncodeRange(q), MsgVerifiedResult)
}
