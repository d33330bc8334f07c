package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/record"
	"sae/internal/replica"
	"sae/internal/shard"
	"sae/internal/workload"
)

// startPrimary boots a durable shard with a hub and serves it.
func startPrimary(t *testing.T, n int) (*core.DurableSystem, *replica.Hub, *PrimaryServer) {
	t.Helper()
	ds, err := workload.Generate(workload.UNF, n, 11)
	if err != nil {
		t.Fatalf("generating dataset: %v", err)
	}
	sys, err := core.OpenDurableSystem(t.TempDir(), ds.Records, 16)
	if err != nil {
		t.Fatalf("opening durable system: %v", err)
	}
	t.Cleanup(func() { sys.Close() })
	hub := replica.Attach(sys, 0)
	plan := shard.PlanFor(ds.Records, 1)
	srv, err := ServePrimary("127.0.0.1:0", sys, hub, nil, WithShardInfo(ShardInfo{Index: 0, Plan: plan}))
	if err != nil {
		t.Fatalf("serving primary: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return sys, hub, srv
}

func waitForGen(t *testing.T, addr string, gen uint64) {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("dialing %s: %v", addr, err)
	}
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := c.GenStamp(t.Context())
		if err != nil {
			t.Fatalf("gen stamp from %s: %v", addr, err)
		}
		if got >= gen {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s stuck at generation %d, want >= %d", addr, got, gen)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPrimaryReplicaWire runs the full replication protocol over real
// sockets: bootstrap, tailing under writes, and bit-identical verified
// answers from primary and replica at the same generation stamp.
func TestPrimaryReplicaWire(t *testing.T) {
	sys, _, psrv := startPrimary(t, 1200)

	rep, si, err := BootstrapReplica(psrv.Addr())
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if si.Plan.Shards() != 1 || si.Index != 0 {
		t.Fatalf("unexpected attestation: shard %d of %d", si.Index, si.Plan.Shards())
	}
	rsrv, err := ServeReplica("127.0.0.1:0", rep, nil, WithShardInfo(si))
	if err != nil {
		t.Fatalf("serving replica: %v", err)
	}
	defer rsrv.Close()
	feed := StartReplicaFeed(rep, psrv.Addr(), nil)
	defer feed.Close()

	// Write through the primary's wire interface: the owner synthesizes
	// records client-side, the primary commits them as one group.
	wc, err := DialSP(psrv.Addr())
	if err != nil {
		t.Fatalf("dialing primary for writes: %v", err)
	}
	defer wc.Close()
	var recs []record.Record
	for i := 0; i < 40; i++ {
		recs = append(recs, record.Synthesize(record.ID(1<<40+i), record.Key(i*200_000)))
	}
	if err := wc.InsertBatch(recs); err != nil {
		t.Fatalf("insert batch: %v", err)
	}
	if err := wc.DeleteBatch([]record.ID{recs[0].ID, recs[1].ID}, []record.Key{recs[0].Key, recs[1].Key}); err != nil {
		t.Fatalf("delete batch: %v", err)
	}

	waitForGen(t, rsrv.Addr(), sys.Seq())

	// Verified answers from primary and replica must be bit-identical.
	pq, err := DialVerified(psrv.Addr())
	if err != nil {
		t.Fatalf("dialing primary verified: %v", err)
	}
	defer pq.Close()
	rq, err := DialVerified(rsrv.Addr())
	if err != nil {
		t.Fatalf("dialing replica verified: %v", err)
	}
	defer rq.Close()
	for _, q := range []record.Range{
		{Lo: 0, Hi: record.KeyDomain},
		{Lo: 1_000_000, Hi: 6_500_000},
	} {
		praw, err := pq.QueryRawVerifiedCtx(t.Context(), q)
		if err != nil {
			t.Fatalf("primary verified query %v: %v", q, err)
		}
		rraw, err := rq.QueryRawVerifiedCtx(t.Context(), q)
		if err != nil {
			t.Fatalf("replica verified query %v: %v", q, err)
		}
		if !bytes.Equal(praw, rraw) {
			t.Fatalf("verified payloads differ over %v (%d vs %d bytes)", q, len(praw), len(rraw))
		}
		// And the verifying decode path accepts them.
		if _, gen, err := rq.Query(q); err != nil {
			t.Fatalf("verifying replica answer over %v: %v", q, err)
		} else if gen != sys.Seq() {
			t.Fatalf("replica stamped %d, primary at %d", gen, sys.Seq())
		}
	}

	// The replica rejects writes.
	rc, err := DialSP(rsrv.Addr())
	if err != nil {
		t.Fatalf("dialing replica for writes: %v", err)
	}
	defer rc.Close()
	err = rc.InsertBatch(recs[:1])
	var se *ServerError
	if !errors.As(err, &se) {
		t.Fatalf("replica write: got %v, want a ServerError", err)
	}
}

// TestOneBodyOneState: a primary applies wire batches through its one
// commit-group body, a replica applies the groups it tails through the
// same body, and a checkpoint-and-reopen rebuilds the primary from the
// owner map that body folded. All three must agree on the owner's
// record count, the generation stamp and the full-range verification
// token.
func TestOneBodyOneState(t *testing.T) {
	sys, _, psrv := startPrimary(t, 1000)
	rep, _, err := BootstrapReplica(psrv.Addr())
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	feed := StartReplicaFeed(rep, psrv.Addr(), nil)
	defer feed.Close()

	wc, err := DialSP(psrv.Addr())
	if err != nil {
		t.Fatalf("dialing primary for writes: %v", err)
	}
	defer wc.Close()
	var recs []record.Record
	for i := 0; i < 30; i++ {
		recs = append(recs, record.Synthesize(record.ID(1<<40+i), record.Key(i*300_000)))
	}
	old := sys.Owner.Records()[:2]
	for _, err := range []error{
		wc.InsertBatch(recs[:20]),
		wc.InsertBatch(recs[20:29]),
		wc.InsertBatch(recs[29:]), // a batch of one
		wc.DeleteBatch([]record.ID{recs[0].ID, recs[1].ID, recs[2].ID}, []record.Key{recs[0].Key, recs[1].Key, recs[2].Key}),
		wc.DeleteBatch([]record.ID{old[0].ID}, []record.Key{old[0].Key}),
		wc.DeleteBatch([]record.ID{old[1].ID}, []record.Key{old[1].Key}),
	} {
		if err != nil {
			t.Fatalf("wire write: %v", err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); rep.Seq() < sys.Seq(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at generation %d, primary at %d", rep.Seq(), sys.Seq())
		}
	}

	type state struct {
		count int
		seq   uint64
		vt    digest.Digest
	}
	full := record.Range{Lo: 0, Hi: record.KeyDomain}
	stateOf := func(name string, count int, serve func(record.Range, func(*record.Record) error) (int, digest.Digest, uint64, error)) state {
		t.Helper()
		n, vt, seq, err := serve(full, func(*record.Record) error { return nil })
		if err != nil {
			t.Fatalf("%s full-range verified query: %v", name, err)
		}
		if n != count {
			t.Fatalf("%s serves %d records but its owner holds %d", name, n, count)
		}
		return state{count, seq, vt}
	}
	primary := stateOf("primary", sys.Owner.Count(), sys.ServeVerified)
	follower := stateOf("replica", rep.Count(), rep.ServeVerified)
	if err := sys.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := core.OpenDurableSystem(sys.Dir, nil, 16)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	reopened := stateOf("reopened primary", re.Owner.Count(), re.ServeVerified)

	if want := 1000 + 30 - 3 - 2; primary.count != want {
		t.Fatalf("primary owner holds %d records, want %d", primary.count, want)
	}
	if follower != primary || reopened != primary {
		t.Fatalf("states differ: primary %+v, replica %+v, reopened %+v", primary, follower, reopened)
	}
}

// TestVerifiedClientFreshnessFloor exercises QueryAtLeast: a client that
// has seen generation G must be able to reject an answer stamped below
// it.
func TestVerifiedClientFreshnessFloor(t *testing.T) {
	sys, _, psrv := startPrimary(t, 400)

	// A replica WITHOUT a feed: it stays at the bootstrap generation.
	rep, si, err := BootstrapReplica(psrv.Addr())
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	rsrv, err := ServeReplica("127.0.0.1:0", rep, nil, WithShardInfo(si))
	if err != nil {
		t.Fatalf("serving replica: %v", err)
	}
	defer rsrv.Close()
	stale := rep.Seq()

	// Advance the primary past the replica.
	if _, err := sys.InsertBatch([]record.Key{42, 43, 44}); err != nil {
		t.Fatalf("insert: %v", err)
	}

	rq, err := DialVerified(rsrv.Addr())
	if err != nil {
		t.Fatalf("dialing replica verified: %v", err)
	}
	defer rq.Close()
	q := record.Range{Lo: 0, Hi: 1_000_000}
	// The stale answer still VERIFIES (it is a correct answer for an
	// older generation)...
	if _, gen, err := rq.Query(q); err != nil || gen != stale {
		t.Fatalf("stale replica query: gen %d, err %v", gen, err)
	}
	// ...but a client holding the primary's stamp rejects it.
	if _, _, err := rq.QueryAtLeast(q, sys.Seq()); !errors.Is(err, ErrStaleRead) {
		t.Fatalf("QueryAtLeast on stale replica: got %v, want ErrStaleRead", err)
	}
}

// silentPeer listens on loopback, accepts every connection and reads what
// arrives without ever answering: a SIGSTOPped process seen from outside,
// whose kernel still completes the handshake. heard fires once the first
// request bytes have arrived.
func silentPeer(t *testing.T) (addr string, heard <-chan struct{}) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan struct{}, 1)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				if _, err := nc.Read(make([]byte, 1)); err == nil {
					select {
					case ch <- struct{}{}:
					default:
					}
				}
				io.Copy(io.Discard, nc)
			}()
		}
	}()
	return ln.Addr().String(), ch
}

// TestReplicaFeedCloseSilentPrimary: Close returns promptly while the
// feed waits on a primary that accepted its connection but never answers.
func TestReplicaFeedCloseSilentPrimary(t *testing.T) {
	addr, heard := silentPeer(t)
	rep, err := replica.NewFromSnapshot(core.Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	feed := StartReplicaFeed(rep, addr, nil)
	select {
	case <-heard: // the feed's first pull is out and will never be answered
	case <-time.After(5 * time.Second):
		t.Fatal("the feed never sent its first pull")
	}
	closed := make(chan struct{})
	go func() {
		feed.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("ReplicaFeed.Close still blocked after 2s behind a silent primary")
	}
}
