package router

import (
	"sync"
	"testing"

	"sae/internal/agg"
	"sae/internal/record"
	"sae/internal/workload"
)

// runMixedBurst drives a router deployment with a range-query burst and
// an aggregate burst at once, on two pipelined connections, and returns
// both sets of verified answers.
func runMixedBurst(t *testing.T, d *deployment, qs []record.Range) ([][]record.Record, []agg.Agg) {
	t.Helper()
	vc := d.plainClient(t)
	ac := d.plainClient(t)

	var (
		wg     sync.WaitGroup
		recs   [][]record.Record
		recErr error
		aggs   []agg.Agg
		aggErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		recs, recErr = vc.QueryBurst(qs)
	}()
	go func() {
		defer wg.Done()
		aggs, aggErr = ac.AggregateBurst(qs)
	}()
	wg.Wait()
	if recErr != nil {
		t.Fatalf("query burst through router: %v", recErr)
	}
	if aggErr != nil {
		t.Fatalf("aggregate burst through router: %v", aggErr)
	}
	return recs, aggs
}

// groupSizes are the client pipelining depths the router burst tests run
// at: lone requests, pairs, full lane bursts at the upstream servers.
var groupSizes = []int{1, 2, 64}

// wantRecords is the in-process reference answer for q: the sharded
// system's own materializing query path.
func wantRecords(t *testing.T, d *deployment, q record.Range) []record.Record {
	t.Helper()
	out, err := d.sys.Query(q)
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("in-process reference query %v: %v / %v", q, err, out.VerifyErr)
	}
	return out.Result
}

func sameRecords(a, b []record.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(&b[i]) {
			return false
		}
	}
	return true
}

// TestRouterMixedBurstParity runs concurrent query and aggregate bursts
// through the router at every group size: the verified results must
// equal the in-process reference — how the upstream party servers group
// the frames is invisible to the router tier and its clients.
func TestRouterMixedBurstParity(t *testing.T) {
	qs := workload.Queries(10, workload.DefaultExtent, 88)
	qs = append(qs, record.Range{Lo: record.KeyDomain + 1, Hi: record.KeyDomain + 5}) // empty
	d := newDeployment(t, 4_000, 1, Config{})
	for _, g := range groupSizes {
		for lo := 0; lo < len(qs); lo += g {
			group := qs[lo:min(lo+g, len(qs))]
			recs, aggs := runMixedBurst(t, d, group)
			for i, q := range group {
				if !sameRecords(recs[i], wantRecords(t, d, q)) {
					t.Fatalf("groups of %d, query %v: result differs from the in-process reference", g, q)
				}
				want, err := d.sys.Aggregate(q)
				if err != nil || want.VerifyErr != nil {
					t.Fatalf("in-process reference aggregate %v: %v / %v", q, err, want.VerifyErr)
				}
				if aggs[i] != want.Agg {
					t.Fatalf("groups of %d, query %v: aggregate %v, in-process reference %v", g, q, aggs[i], want.Agg)
				}
			}
		}
	}
}

// TestRouterShardedBurst runs client bursts through a 3-shard router
// deployment at every group size: scatter-gather over lane-serving
// shards must return the in-process reference's verified results.
func TestRouterShardedBurst(t *testing.T) {
	qs := workload.Queries(8, workload.DefaultExtent, 89)
	d := newDeployment(t, 12_000, 3, Config{})
	vc := d.plainClient(t)
	for _, g := range groupSizes {
		for lo := 0; lo < len(qs); lo += g {
			group := qs[lo:min(lo+g, len(qs))]
			res, err := vc.QueryBurst(group)
			if err != nil {
				t.Fatalf("groups of %d: QueryBurst through 3-shard router: %v", g, err)
			}
			for i, q := range group {
				if !sameRecords(res[i], wantRecords(t, d, q)) {
					t.Fatalf("groups of %d, query %v: result differs from the in-process reference", g, q)
				}
			}
		}
	}
}
