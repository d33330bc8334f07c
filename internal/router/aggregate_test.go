package router

import (
	"errors"
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
// scalar on the untrusted result path. The client's comparison against
// the TE-side aggregate token must reject it.
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
		t.Fatalf("forged routed scalar error = %v, want ErrVerificationFailed", err)
	}
}

// TestRouterAggregateSeamAttacksRejected: scatter-shape attacks on the
// aggregate path — a shaved clamp or a dropped shard changes the merged
// scalar, which the range-bound token no longer matches.
func TestRouterAggregateSeamAttacksRejected(t *testing.T) {
	d := newDeployment(t, 10_000, 3, Config{})
	q := spanningQuery(t, d)
	client := d.plainClient(t)

	d.router.setTamper(&tamper{reshapeSubs: func(subs []shard.SubQuery) []shard.SubQuery {
		out := append([]shard.SubQuery(nil), subs...)
		if len(out) > 0 && out[0].Sub.Hi > out[0].Sub.Lo+100_000 {
			out[0].Sub.Hi -= 100_000
		}
		return out
	}})
	if _, err := client.Aggregate(q); !errors.Is(err, core.ErrVerificationFailed) {
		t.Fatalf("seam-narrowed routed aggregate error = %v, want ErrVerificationFailed", err)
	}

	d.router.setTamper(&tamper{reshapeSubs: func(subs []shard.SubQuery) []shard.SubQuery {
		if len(subs) > 1 {
			return subs[1:]
		}
		return subs
	}})
	if _, err := client.Aggregate(q); !errors.Is(err, core.ErrVerificationFailed) {
		t.Fatalf("shard-suppressed routed aggregate error = %v, want ErrVerificationFailed", err)
	}
	d.router.setTamper(nil)
}

// TestUpstreamAggTamperThroughRouterRejected: a malicious upstream SP
// inflating its partial stays detected when the partial arrives merged
// through an honest router.
func TestUpstreamAggTamperThroughRouterRejected(t *testing.T) {
	d := newDeployment(t, 10_000, 3, Config{})
	q := spanningQuery(t, d)
	client := d.plainClient(t)
	d.sys.SPs[1].SetAggTamper(core.InflateAggTamper(2, 0))
	defer d.sys.SPs[1].SetAggTamper(nil)
	if _, err := client.Aggregate(q); !errors.Is(err, core.ErrVerificationFailed) {
		t.Fatalf("upstream agg tamper error = %v, want ErrVerificationFailed", err)
	}
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
