package router

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"sae/internal/agg"
	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/workload"
)

// TestRoutedAggregateParity: a plain VerifyingClient's verified aggregate
// through the router equals the in-process sharded oracle and the direct
// client-side scatter, for every merge shape.
func TestRoutedAggregateParity(t *testing.T) {
	d := newDeployment(t, 12_000, 3, Config{})
	routed := d.plainClient(t)
	direct := d.directClient(t)
	for _, q := range testQueries(d, 8, 83) {
		oracle, err := d.sys.Aggregate(q)
		if err != nil {
			t.Fatalf("oracle %v: %v", q, err)
		}
		if oracle.VerifyErr != nil {
			t.Fatalf("oracle rejected honest aggregate for %v: %v", q, oracle.VerifyErr)
		}
		gotRouted, err := routed.Aggregate(q)
		if err != nil {
			t.Fatalf("routed aggregate %v: %v", q, err)
		}
		gotDirect, err := direct.Aggregate(q)
		if err != nil {
			t.Fatalf("direct aggregate %v: %v", q, err)
		}
		if gotRouted != oracle.Agg || gotDirect != oracle.Agg {
			t.Fatalf("%v: routed %v, direct %v, oracle %v", q, gotRouted, gotDirect, oracle.Agg)
		}
	}
}

// TestRoutedAggregateSingleShard: a router over one shard relays the
// aggregate protocol transparently.
func TestRoutedAggregateSingleShard(t *testing.T) {
	d := newDeployment(t, 4_000, 1, Config{})
	routed := d.plainClient(t)
	for _, q := range workload.Queries(5, workload.DefaultExtent, 84) {
		if _, err := routed.Aggregate(q); err != nil {
			t.Fatalf("routed single-shard aggregate %v: %v", q, err)
		}
	}
}

// TestRouterForgedAggregateRejected: the router asserts a flat-out wrong
// aggregate in the merged token without re-tagging it. The client's tag
// check must reject it.
func TestRouterForgedAggregateRejected(t *testing.T) {
	d := newDeployment(t, 10_000, 3, Config{})
	q := spanningQuery(t, d)
	client := d.plainClient(t)
	if _, err := client.Aggregate(q); err != nil {
		t.Fatalf("honest routed aggregate: %v", err)
	}
	d.router.setTamper(&tamper{forgeAgg: func(a agg.Agg) agg.Agg {
		a.Sum += 1
		return a
	}})
	defer d.router.setTamper(nil)
	if _, err := client.Aggregate(q); !errors.Is(err, core.ErrVerificationFailed) {
		t.Fatalf("forged routed token aggregate error = %v, want ErrVerificationFailed", err)
	}
}

// TestRouterAggregateSeamAttacksRejected: scatter-shape attacks on the
// SP-side scatter — a shaved clamp or a dropped shard. A verified
// aggregate is the TEs' tokens alone, scattered under the attested plan,
// so the attacks do not reach it: the answer stays the oracle's, here
// over split SP/TE shards and in TestVerifiedAggAttacksOverPrimaries over
// primaries.
func TestRouterAggregateSeamAttacksRejected(t *testing.T) {
	d := newDeployment(t, 10_000, 3, Config{})
	q := spanningQuery(t, d)
	client := d.plainClient(t)
	oracle := oracleAgg(t, d, q)

	d.router.setTamper(&tamper{reshapeSubs: func(subs []shard.SubQuery) []shard.SubQuery {
		out := append([]shard.SubQuery(nil), subs...)
		if len(out) > 0 && out[0].Sub.Hi > out[0].Sub.Lo+100_000 {
			out[0].Sub.Hi -= 100_000
		}
		return out
	}})
	if a, err := client.Aggregate(q); err != nil || a != oracle {
		t.Fatalf("seam-narrowed SP scatter: routed aggregate %v (%v), want the oracle's %v", a, err, oracle)
	}

	d.router.setTamper(&tamper{reshapeSubs: func(subs []shard.SubQuery) []shard.SubQuery {
		if len(subs) > 1 {
			return subs[1:]
		}
		return subs
	}})
	if a, err := client.Aggregate(q); err != nil || a != oracle {
		t.Fatalf("shard-suppressed SP scatter: routed aggregate %v (%v), want the oracle's %v", a, err, oracle)
	}
	d.router.setTamper(nil)
}

// TestUpstreamAggTamperThroughRouterRejected: a malicious upstream SP
// inflating its partial does not reach the routed verified aggregate,
// which never asks for its scalar: the answer stays the oracle's.
func TestUpstreamAggTamperThroughRouterRejected(t *testing.T) {
	d := newDeployment(t, 10_000, 3, Config{})
	q := spanningQuery(t, d)
	client := d.plainClient(t)
	oracle := oracleAgg(t, d, q)
	d.sys.SPs[1].SetAggTamper(core.InflateAggTamper(2, 0))
	defer d.sys.SPs[1].SetAggTamper(nil)
	if a, err := client.Aggregate(q); err != nil || a != oracle {
		t.Fatalf("routed aggregate beside an inflating SP = %v (%v), want the oracle's %v", a, err, oracle)
	}
}

// TestSplitVerifiedAggSkipsSPs: over split SP/TE shards one routed
// verified aggregate sends no MsgAggQuery leg upstream — every shard SP's
// aggregate verb stays idle — and still answers the oracle's value.
func TestSplitVerifiedAggSkipsSPs(t *testing.T) {
	d := newDeployment(t, 10_000, 3, Config{})
	q := record.Range{Lo: 0, Hi: record.KeyDomain}
	oracle := oracleAgg(t, d, q)
	var spAggs atomic.Int64
	for _, sp := range d.sys.SPs {
		sp.SetAggTamper(func(a agg.Agg) agg.Agg { spAggs.Add(1); return a })
		defer sp.SetAggTamper(nil)
	}
	client := d.plainClient(t)
	if a, err := client.Aggregate(q); err != nil || a != oracle {
		t.Fatalf("routed aggregate = %v (%v), want the oracle's %v", a, err, oracle)
	}
	if n := spAggs.Load(); n != 0 {
		t.Fatalf("one routed verified aggregate asked the shard SPs for %d scalars, want 0", n)
	}
	// The probe counts: the unverified MsgAggQuery scatter reaches all three.
	if _, err := client.SP.AggregateWithCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if n := spAggs.Load(); n != 3 {
		t.Fatalf("one routed MsgAggQuery asked the shard SPs for %d scalars, want 3", n)
	}
}

// oracleAgg is the in-process sharded system's verified aggregate of q.
func oracleAgg(t *testing.T, d *deployment, q record.Range) agg.Agg {
	t.Helper()
	out, err := d.sys.Aggregate(q)
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("oracle aggregate %v: %v / %v", q, err, out.VerifyErr)
	}
	return out.Agg
}

// TestRoutedAggregateEmptyRange: an empty range through the router yields
// the zero scalar and still verifies (the merged token must cover the
// empty fold).
func TestRoutedAggregateEmptyRange(t *testing.T) {
	d := newDeployment(t, 4_000, 3, Config{})
	client := d.plainClient(t)
	a, err := client.Aggregate(record.Range{Lo: 9, Hi: 3})
	if err != nil {
		t.Fatalf("empty-range routed aggregate: %v", err)
	}
	if !a.Empty() {
		t.Fatalf("empty-range routed aggregate = %v, want zero scalar", a)
	}
}
