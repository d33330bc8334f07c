package router

import (
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/replica"
	"sae/internal/shard"
	"sae/internal/wire"
	"sae/internal/workload"
)

// TestRouterUpstreamDropMidGather: a shard SP that dies under the router
// fails the client's request loudly. The client must see an error (or a
// verification failure) — never a silently truncated verified result.
func TestRouterUpstreamDropMidGather(t *testing.T) {
	d := newDeployment(t, 8_000, 2, Config{UpstreamTimeout: 5 * time.Second})
	client := d.plainClient(t)
	q := spanningQuery(t, d)
	if _, err := client.Query(q); err != nil {
		t.Fatalf("honest routed query: %v", err)
	}
	// Kill shard 1's SP out from under the router's pooled connections:
	// closing the server drops every live upstream conn mid-stream.
	d.spSrvs[1].Close()
	recs, err := client.Query(q)
	if err == nil {
		t.Fatalf("query spanning a dead shard returned %d records with no error", len(recs))
	}
	if !strings.Contains(err.Error(), "shard 1") {
		t.Logf("dead-shard error does not name the shard: %v", err)
	}
	// Queries entirely inside the surviving shard keep working: the
	// router degrades per-request, not wholesale.
	q0 := record.Range{Lo: d.sys.Plan.Span(0).Lo, Hi: d.sys.Plan.Span(0).Lo + 200_000}
	if _, err := client.Query(q0); err != nil {
		t.Fatalf("query on the surviving shard failed: %v", err)
	}
}

// TestRouterSlowShardTimeout: a shard that stalls past UpstreamTimeout
// fails the request within the bound instead of hanging the client, and
// the router's pipelined upstream connection survives for later
// requests.
func TestRouterSlowShardTimeout(t *testing.T) {
	d := newDeployment(t, 6_000, 2, Config{})
	// A fake slow SP for shard 1: attests correctly so the router dials
	// it, then stalls every query.
	release := make(chan struct{})
	plan := d.sys.Plan
	slow, err := wire.Serve("127.0.0.1:0", func(req wire.Frame, rb *wire.RespBuf) wire.Frame {
		switch req.Type {
		case wire.MsgShardMapReq:
			return wire.Frame{Type: wire.MsgShardMap, Payload: wire.EncodeShardInfo(wire.ShardInfo{Index: 1, Plan: plan})}
		case wire.MsgQuery:
			<-release // stall until the test ends
			rb.AppendUint32(0)
			return wire.Frame{Type: wire.MsgResult, Payload: rb.Bytes()}
		default:
			return wire.ErrFrame(wire.ErrProtocol)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	defer close(release)

	r, err := New(Config{
		SPs:             []string{d.spAddrs[0], slow.Addr()},
		TEs:             d.teAddrs,
		UpstreamTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("router over slow shard: %v", err)
	}
	defer r.Close()
	if err := r.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	vc, err := wire.DialVerifying(r.Addr(), r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()

	q := spanningQuery(t, d)
	start := time.Now()
	_, qErr := vc.Query(q)
	elapsed := time.Since(start)
	if qErr == nil {
		t.Fatal("query against a stalled shard succeeded")
	}
	if elapsed > 3*time.Second {
		t.Fatalf("slow-shard failure took %v; the timeout bound did not apply", elapsed)
	}
	// The stalled request was abandoned, not the connection: queries that
	// avoid the slow shard still flow.
	q0 := record.Range{Lo: d.sys.Plan.Span(0).Lo, Hi: d.sys.Plan.Span(0).Lo + 100_000}
	if _, err := vc.Query(q0); err != nil {
		t.Fatalf("query avoiding the slow shard failed: %v", err)
	}
}

// TestRouterHedgedCancellation: with HedgeAfter set, a stalled endpoint
// is raced against a healthy sibling, the fast leg's answer wins and
// verifies, and the loser's in-flight request is cancelled — its
// connection survives (no eviction for a cancellation) and no response
// is ever double-delivered. Runs under -race in CI: the two legs share
// the endpoint set's counters and generation tracking.
func TestRouterHedgedCancellation(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 3_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.OpenDurableSystem(t.TempDir(), ds.Records, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	hub := replica.Attach(sys, 0)
	plan := shard.PlanFor(ds.Records, 1)
	psrv, err := wire.ServePrimary("127.0.0.1:0", sys, hub, nil,
		wire.WithShardInfo(wire.ShardInfo{Index: 0, Plan: plan}))
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()

	// A fake "replica" that attests and stamps correctly but stalls every
	// verified query until the test ends — the pathological slow sibling.
	release := make(chan struct{})
	fake, err := wire.Serve("127.0.0.1:0", func(req wire.Frame, rb *wire.RespBuf) wire.Frame {
		switch req.Type {
		case wire.MsgShardMapReq:
			return wire.Frame{Type: wire.MsgShardMap, Payload: wire.EncodeShardInfo(wire.ShardInfo{Index: 0, Plan: plan})}
		case wire.MsgGenStampReq:
			rb.AppendUint64(sys.Seq())
			return wire.Frame{Type: wire.MsgGenStamp, Payload: rb.Bytes()}
		case wire.MsgVerifiedQuery:
			<-release
			return wire.ErrFrame(wire.ErrProtocol)
		default:
			return wire.ErrFrame(wire.ErrProtocol)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	defer close(release) // runs before fake.Close: stalled handlers drain

	r, err := New(Config{
		SPs:           []string{psrv.Addr()},
		TEs:           []string{psrv.Addr()},
		Replicas:      [][]string{{fake.Addr()}},
		HedgeAfter:    15 * time.Millisecond,
		MaxLag:        1 << 30, // the fake never answers, so its gen stays 0
		ProbeInterval: -1,      // deterministic: no background stamping
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	vc, err := wire.DialVerified(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()

	// Round-robin sends roughly half the queries to the stalled endpoint
	// first; every one of them must still answer — via the hedge — and
	// verify.
	q := record.Range{Lo: 0, Hi: record.KeyDomain}
	for i := 0; i < 8; i++ {
		recs, _, err := vc.Query(q)
		if err != nil {
			t.Fatalf("hedged query %d: %v", i, err)
		}
		if len(recs) == 0 {
			t.Fatalf("hedged query %d returned no records", i)
		}
	}
	ctrs := r.Counters()
	if ctrs.Hedges == 0 {
		t.Fatalf("no hedge was ever launched: %+v", ctrs)
	}
	if ctrs.HedgesWon == 0 {
		t.Fatalf("hedges launched but none won (the stalled endpoint cannot win): %+v", ctrs)
	}
	// Cancelled legs must not have evicted the stalled endpoint's healthy
	// connection: a cancellation implicates the request, not the conn.
	if ctrs.Evictions != 0 {
		t.Fatalf("hedge cancellations evicted connections: %+v", ctrs)
	}
}

// TestRoutedConcurrentClients: many goroutines hammer one router over
// shared pooled upstream connections — the race detector's view of the
// whole request path (run under -race in CI).
func TestRoutedConcurrentClients(t *testing.T) {
	d := newDeployment(t, 10_000, 3, Config{})
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vc, err := wire.DialVerifying(d.router.Addr(), d.router.Addr())
			if err != nil {
				errs[w] = err
				return
			}
			defer vc.Close()
			qs := workload.Queries(6, workload.DefaultExtent, int64(300+w))
			for _, q := range qs {
				if _, err := vc.Query(q); err != nil {
					errs[w] = err
					return
				}
			}
			if _, err := vc.QueryBurst(qs); err != nil {
				errs[w] = err
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
}

// TestRouterBadUpstreamFraming: an upstream SP that returns malformed
// record payloads must fail the request at the router, not smuggle
// garbage into a merged frame.
func TestRouterBadUpstreamFraming(t *testing.T) {
	d := newDeployment(t, 4_000, 2, Config{})
	plan := d.sys.Plan
	bad, err := wire.Serve("127.0.0.1:0", func(req wire.Frame, rb *wire.RespBuf) wire.Frame {
		switch req.Type {
		case wire.MsgShardMapReq:
			return wire.Frame{Type: wire.MsgShardMap, Payload: wire.EncodeShardInfo(wire.ShardInfo{Index: 1, Plan: plan})}
		case wire.MsgQuery:
			// Claims 100 records, ships none.
			rb.AppendUint32(100)
			return wire.Frame{Type: wire.MsgResult, Payload: rb.Bytes()}
		default:
			return wire.ErrFrame(wire.ErrProtocol)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	r, err := New(Config{SPs: []string{d.spAddrs[0], bad.Addr()}, TEs: d.teAddrs})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	vc, err := wire.DialVerifying(r.Addr(), r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	if _, err := vc.Query(spanningQuery(t, d)); err == nil {
		t.Fatal("malformed upstream framing passed through the router")
	}
}

// TestNewSilentUpstream: building a router against an upstream that
// accepts connections but never answers — a SIGSTOPped process, whose
// kernel still completes the handshake — fails within the dial timeout
// instead of hanging on the attestation cross-check.
func TestNewSilentUpstream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				io.Copy(io.Discard, nc)
			}()
		}
	}()
	done := make(chan error, 1)
	go func() {
		r, err := New(Config{SPs: []string{ln.Addr().String()}, TEs: []string{ln.Addr().String()}})
		if err == nil {
			r.Close()
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("router.New accepted an upstream that never attested")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("router.New still blocked after 5s on an upstream that accepts but never answers")
	}
}
