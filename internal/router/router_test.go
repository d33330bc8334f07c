package router

import (
	"context"
	"testing"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/record"
	"sae/internal/wire"
	"sae/internal/workload"
)

// deployment is a full in-process sharded deployment served over
// loopback TCP with a router in front: the unit every test drives.
type deployment struct {
	sys     *core.ShardedSystem
	spAddrs []string
	teAddrs []string
	spSrvs  []*wire.SPServer
	teSrvs  []*wire.TEServer
	router  *Router
}

// newDeployment builds an n-record, `shards`-shard SAE deployment, serves
// every party on loopback and starts a router over it.
func newDeployment(t *testing.T, n, shards int, cfg Config) *deployment {
	t.Helper()
	ds, err := workload.Generate(workload.UNF, n, 77)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewShardedSystem(ds.Records, shards)
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{sys: sys}
	for i := 0; i < sys.Plan.Shards(); i++ {
		si := wire.ShardInfo{Index: i, Plan: sys.Plan}
		spSrv, err := wire.ServeSP("127.0.0.1:0", sys.SPs[i], nil, wire.WithShardInfo(si))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { spSrv.Close() })
		teSrv, err := wire.ServeTE("127.0.0.1:0", sys.TEs[i], nil, wire.WithShardInfo(si))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { teSrv.Close() })
		d.spSrvs = append(d.spSrvs, spSrv)
		d.teSrvs = append(d.teSrvs, teSrv)
		d.spAddrs = append(d.spAddrs, spSrv.Addr())
		d.teAddrs = append(d.teAddrs, teSrv.Addr())
	}
	cfg.SPs, cfg.TEs = d.spAddrs, d.teAddrs
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("router.New: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	if err := r.Serve("127.0.0.1:0"); err != nil {
		t.Fatalf("router.Serve: %v", err)
	}
	d.router = r
	return d
}

// plainClient dials the router's one address as both SAE parties — the
// unmodified single-system client the tier exists for.
func (d *deployment) plainClient(t *testing.T) *wire.VerifyingClient {
	t.Helper()
	vc, err := wire.DialVerifying(d.router.Addr(), d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { vc.Close() })
	return vc
}

func (d *deployment) directClient(t *testing.T) *wire.ShardedVerifyingClient {
	t.Helper()
	c, err := wire.DialShardedVerifying(d.spAddrs, d.teAddrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// testQueries returns a workload that exercises every merge shape:
// narrow single-shard ranges, multi-shard spans, the full domain, a
// boundary-exact shard span and an empty range.
func testQueries(d *deployment, n int, seed int64) []record.Range {
	qs := workload.Queries(n, workload.DefaultExtent, seed)
	qs = append(qs,
		record.Range{Lo: 0, Hi: record.KeyDomain}, // every shard
		d.sys.Plan.Span(1),                        // boundary-exact
		record.Range{Lo: 9, Hi: 3},                // empty
	)
	return qs
}

// TestRoutedQueryParity: a plain VerifyingClient through the router
// returns exactly what a direct client-side scatter returns — records
// bit-identical, and the router's aggregated token bit-identical to the
// XOR of the shard TEs' tokens — against the in-process sharded system
// as the ground-truth oracle (whose outcome also carries the
// sum-of-shards cost roll-up the deployment reports).
func TestRoutedQueryParity(t *testing.T) {
	d := newDeployment(t, 12_000, 3, Config{})
	routed := d.plainClient(t)
	direct := d.directClient(t)
	routerTE, err := wire.DialTE(d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer routerTE.Close()

	for _, q := range testQueries(d, 6, 78) {
		oracle, err := d.sys.Query(q)
		if err != nil || oracle.VerifyErr != nil {
			t.Fatalf("oracle %v: %v / %v", q, err, oracle.VerifyErr)
		}
		// The oracle's roll-up is the sum over the overlapping shards —
		// the aggregate work the routed deployment spent on this query.
		var shardAccesses int64
		for _, pc := range oracle.PerShard {
			shardAccesses += pc.SPCost.Total().Accesses
		}
		if got := oracle.QueryCost().Total().Accesses; got != shardAccesses {
			t.Fatalf("%v: cost roll-up %d != sum of shards %d", q, got, shardAccesses)
		}

		gotRouted, err := routed.Query(q)
		if err != nil {
			t.Fatalf("routed %v: %v", q, err)
		}
		gotDirect, err := direct.Query(q)
		if err != nil {
			t.Fatalf("direct %v: %v", q, err)
		}
		if len(gotRouted) != len(gotDirect) || len(gotRouted) != len(oracle.Result) {
			t.Fatalf("%v: routed %d, direct %d, oracle %d records",
				q, len(gotRouted), len(gotDirect), len(oracle.Result))
		}
		for i := range gotRouted {
			if gotRouted[i] != gotDirect[i] || gotRouted[i] != oracle.Result[i] {
				t.Fatalf("%v: record %d differs between paths", q, i)
			}
		}

		// Token parity: the router's TE endpoint must hand out exactly
		// the XOR of the shard TEs' tokens — the oracle's combined VT.
		vts, err := routerTE.GenerateVTMany(context.Background(), []record.Range{q})
		if err != nil {
			t.Fatalf("router VT %v: %v", q, err)
		}
		if vts[0] != oracle.VT {
			t.Fatalf("%v: routed token differs from oracle's combined token", q)
		}
	}
}

// TestRoutedBurstParity: a pipelined burst through the router matches
// the direct client-side scatter for every query in the burst.
func TestRoutedBurstParity(t *testing.T) {
	d := newDeployment(t, 12_000, 3, Config{})
	routed := d.plainClient(t)
	direct := d.directClient(t)
	qs := testQueries(d, 12, 79)
	gotRouted, err := routed.QueryBurst(qs)
	if err != nil {
		t.Fatalf("routed burst: %v", err)
	}
	if len(gotRouted) != len(qs) {
		t.Fatalf("%d routed results for %d queries", len(gotRouted), len(qs))
	}
	for qi, q := range qs {
		gotDirect, err := direct.Query(q)
		if err != nil {
			t.Fatalf("direct %v: %v", q, err)
		}
		if len(gotRouted[qi]) != len(gotDirect) {
			t.Fatalf("query %d: routed %d records, direct %d", qi, len(gotRouted[qi]), len(gotDirect))
		}
		for i := range gotDirect {
			if gotRouted[qi][i] != gotDirect[i] {
				t.Fatalf("query %d: record %d differs", qi, i)
			}
		}
	}
}

// TestRoutedSingleShard: a router over a 1-shard deployment is a pure
// relay — the plain client behaves exactly as against the shard itself.
func TestRoutedSingleShard(t *testing.T) {
	d := newDeployment(t, 4_000, 1, Config{})
	routed := d.plainClient(t)
	directVC, err := wire.DialVerifying(d.spAddrs[0], d.teAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer directVC.Close()
	for _, q := range workload.Queries(4, workload.DefaultExtent, 80) {
		a, err := routed.Query(q)
		if err != nil {
			t.Fatalf("routed: %v", err)
		}
		b, err := directVC.Query(q)
		if err != nil {
			t.Fatalf("direct: %v", err)
		}
		if len(a) != len(b) {
			t.Fatalf("%v: %d routed vs %d direct records", q, len(a), len(b))
		}
	}
}

// TestRouterShardMapRelay: the router relays the TE-attested plan for
// observability.
func TestRouterShardMapRelay(t *testing.T) {
	d := newDeployment(t, 6_000, 3, Config{})
	c, err := wire.DialSP(d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	si, err := c.ShardMap()
	if err != nil {
		t.Fatal(err)
	}
	if !si.Plan.Equal(d.sys.Plan) {
		t.Fatalf("router relays plan %v, upstream TEs attest %v", si.Plan, d.sys.Plan)
	}
}

// TestRouterRejectsUpdates: the router is a read tier; owner updates
// must be refused, not half-applied to one side of a shard.
func TestRouterRejectsUpdates(t *testing.T) {
	d := newDeployment(t, 2_000, 2, Config{})
	c, err := wire.DialSP(d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.InsertBatch([]record.Record{record.Synthesize(999_999, 1234)}); err == nil {
		t.Fatal("router accepted an owner insert")
	}
	if err := c.DeleteBatch([]record.ID{1}, []record.Key{1}); err == nil {
		t.Fatal("router accepted an owner delete")
	}
}

// TestRouterRejectsMiswiredUpstreams: swapped upstream shard order must
// fail the attestation cross-check at startup.
func TestRouterRejectsMiswiredUpstreams(t *testing.T) {
	d := newDeployment(t, 4_000, 3, Config{})
	swappedSP := []string{d.spAddrs[1], d.spAddrs[0], d.spAddrs[2]}
	swappedTE := []string{d.teAddrs[1], d.teAddrs[0], d.teAddrs[2]}
	if r, err := New(Config{SPs: swappedSP, TEs: swappedTE}); err == nil {
		r.Close()
		t.Fatal("router accepted swapped upstream shard order")
	}
	if r, err := New(Config{SPs: d.spAddrs[:2], TEs: d.teAddrs[:2]}); err == nil {
		r.Close()
		t.Fatal("router accepted a partial deployment")
	}
}

// TestRoutedVTMatchesDigestFold: belt-and-braces token parity on the
// whole domain — the routed token equals the XOR fold of every record
// digest, i.e. the token a single TE over the full dataset would issue.
func TestRoutedVTMatchesDigestFold(t *testing.T) {
	d := newDeployment(t, 5_000, 4, Config{})
	routerTE, err := wire.DialTE(d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer routerTE.Close()
	q := record.Range{Lo: 0, Hi: record.KeyDomain}
	vts, err := routerTE.GenerateVTMany(context.Background(), []record.Range{q})
	if err != nil {
		t.Fatal(err)
	}
	vt := vts[0]
	oracle, err := d.sys.Query(q)
	if err != nil || oracle.VerifyErr != nil {
		t.Fatalf("oracle: %v / %v", err, oracle.VerifyErr)
	}
	var acc digest.Accumulator
	for i := range oracle.Result {
		acc.Add(digest.OfRecord(&oracle.Result[i]))
	}
	if vt != acc.Sum() {
		t.Fatal("routed whole-domain token differs from the dataset's digest fold")
	}
}
