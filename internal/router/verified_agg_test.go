package router

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sae/internal/agg"
	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/wire"
)

// TestAggBesideWriterRouted: verified aggregates routed over two
// primaries while commits land at shard 0 are never rejected. When the
// answer was the SP's scalar checked against the TE's token, scattered as
// two legs, the legs of one shard could straddle a commit and the honest
// answer was refused as forged; every shard's token alone cannot tear.
func TestAggBesideWriterRouted(t *testing.T) {
	d := newReplicaDeployment(t, 20_000, 2, 0, Config{ProbeInterval: -1})
	client, err := wire.DialVerifying(d.router.Addr(), d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	wc, err := wire.DialSP(d.primAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

	span := d.plan.Span(0)
	var stop atomic.Bool
	var groups atomic.Int64
	var writeErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			batch := make([]record.Record, 4)
			for j := range batch {
				n := uint64(4*i + j)
				key := span.Lo + record.Key(n*7919%uint64(span.Hi-span.Lo))
				batch[j] = record.Synthesize(record.ID(1<<40+n), key)
			}
			if writeErr = wc.InsertBatch(batch); writeErr != nil {
				return
			}
			groups.Add(1)
		}
	}()
	q := record.Range{Lo: 0, Hi: record.KeyDomain}
	ops, rejected := 0, 0
	var other error
	for end := time.Now().Add(time.Second); time.Now().Before(end) && other == nil; ops++ {
		if _, err := client.Aggregate(q); errors.Is(err, core.ErrVerificationFailed) {
			rejected++
		} else if err != nil {
			other = err
		}
	}
	stop.Store(true)
	wg.Wait()
	switch {
	case other != nil:
		t.Fatalf("routed aggregate beside the writer: %v", other)
	case writeErr != nil:
		t.Fatalf("writer: %v", writeErr)
	case groups.Load() == 0:
		t.Fatal("the writer committed nothing; the test raced no commit")
	}
	t.Logf("%d routed aggregates beside %d commit groups, %d rejected", ops, groups.Load(), rejected)
	if rejected > 0 {
		t.Fatalf("%d of %d honest routed aggregates rejected beside a writer", rejected, ops)
	}
}

// TestVerifiedAggOneFrameThroughRouter: a plain client at the router
// sends a verified aggregate as one MsgAggTokenReq frame on its TE
// connection, 17 bytes out and 53 back (the 44-byte token), over
// primaries and over split SP/TE shards alike, and nothing on its SP
// connection.
func TestVerifiedAggOneFrameThroughRouter(t *testing.T) {
	split := newDeployment(t, 4_000, 2, Config{})
	combined := newReplicaDeployment(t, 4_000, 2, 0, Config{ProbeInterval: -1})
	for _, addr := range []string{split.router.Addr(), combined.router.Addr()} {
		vc, err := wire.DialVerifying(addr, addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vc.Aggregate(record.Range{Lo: 0, Hi: record.KeyDomain}); err != nil {
			t.Fatal(err)
		}
		sp := vc.SP.BytesSent() + vc.SP.BytesReceived()
		te := vc.TE.BytesSent() + vc.TE.BytesReceived()
		vc.Close()
		if sp != 0 || te != 17+53 {
			t.Errorf("%d B on the SP connection and %d B on the TE's, want 0 and %d", sp, te, 17+53)
		}
	}
}

// TestVerifiedAggRoutedParity: the router's one-frame answer verifies
// and carries the scalar the two old legs answer, over split SP/TE shards
// and over primaries, each shard answering its token in one
// MsgAggTokenReq leg: every answer the two-leg client accepted is
// accepted with the same value. Over primaries
// it also equals a direct client-side scatter's.
func TestVerifiedAggRoutedParity(t *testing.T) {
	split := newDeployment(t, 12_000, 3, Config{})
	combined := newReplicaDeployment(t, 12_000, 3, 0, Config{ProbeInterval: -1})
	direct, err := wire.DialShardedVerifying(combined.primAddrs, combined.primAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	ctx := context.Background()
	for _, addr := range []string{split.router.Addr(), combined.router.Addr()} {
		vc, err := wire.DialVerifying(addr, addr)
		if err != nil {
			t.Fatal(err)
		}
		defer vc.Close()
		for _, q := range testQueries(split, 8, 85) {
			got, err := vc.Aggregate(q)
			if err != nil {
				t.Fatalf("%v: %v", q, err)
			}
			a, err := vc.SP.AggregateWithCtx(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			tok, err := vc.TE.AggTokenWithCtx(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if err := tok.Verify(q, a); err != nil || got != a {
				t.Fatalf("%v: one frame answered %v, the two legs %v (%v)", q, got, a, err)
			}
			if addr == combined.router.Addr() {
				if want, err := direct.Aggregate(q); err != nil || want != a {
					t.Fatalf("%v: routed %v, direct %v (%v)", q, a, want, err)
				}
			}
		}
	}
}

// TestVerifiedAggAttacksOverPrimaries: over primaries each shard's leg
// carries its token alone. A merged token whose aggregate is forged
// without re-tagging reaches the client as ErrVerificationFailed; an
// inflating shard SP is never read, so the answer stays the honest one.
// A rogue SP-side scatter (narrowed or dropped sub-queries) does not
// reach the token scatter, which runs under the attested plan, so the
// answer stays the honest one too.
func TestVerifiedAggAttacksOverPrimaries(t *testing.T) {
	d := newReplicaDeployment(t, 10_000, 3, 0, Config{ProbeInterval: -1})
	seam := d.plan.Span(0).Hi
	q := record.Range{Lo: seam - 400_000, Hi: seam + 400_000}
	client, err := wire.DialVerifying(d.router.Addr(), d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	honest, err := client.Aggregate(q)
	if err != nil {
		t.Fatalf("honest routed aggregate: %v", err)
	}

	d.router.setTamper(&tamper{forgeAgg: func(a agg.Agg) agg.Agg {
		a.Sum++
		return a
	}})
	if _, err := client.Aggregate(q); !errors.Is(err, core.ErrVerificationFailed) {
		t.Errorf("forged routed token aggregate: error %v, want ErrVerificationFailed", err)
	}
	d.router.setTamper(nil)

	d.syss[1].SP.SetAggTamper(core.InflateAggTamper(2, 0))
	if a, err := client.Aggregate(q); err != nil || a != honest {
		t.Errorf("inflating shard SP: routed aggregate %v (%v), want the honest %v", a, err, honest)
	}
	d.syss[1].SP.SetAggTamper(nil)

	for name, reshape := range map[string]func([]shard.SubQuery) []shard.SubQuery{
		"narrowed": func(subs []shard.SubQuery) []shard.SubQuery {
			out := append([]shard.SubQuery(nil), subs...)
			out[0].Sub.Hi -= 100_000
			return out
		},
		"suppressed": func(subs []shard.SubQuery) []shard.SubQuery { return subs[1:] },
	} {
		d.router.setTamper(&tamper{reshapeSubs: reshape})
		if a, err := client.Aggregate(q); err != nil || a != honest {
			t.Errorf("%s SP sub-query: routed aggregate %v (%v), want the honest %v", name, a, err, honest)
		}
	}
	d.router.setTamper(nil)
	if _, err := client.Aggregate(q); err != nil {
		t.Fatalf("honest routed aggregate after the attacks: %v", err)
	}
}
