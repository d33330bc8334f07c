package router

import (
	"context"
	"sync"
	"testing"

	"sae/internal/mbtree"
	"sae/internal/record"
	"sae/internal/wire"
	"sae/internal/workload"
)

// runMixedBurst drives a router deployment (single-shard SAE + TOM tier)
// with concurrent SAE and TOM bursts on pipelined connections and
// returns the verified SAE results plus the raw TOM payloads.
func runMixedBurst(t *testing.T, d *deployment, qs []record.Range) ([][]record.Record, [][]byte) {
	t.Helper()
	vc := d.plainClient(t)
	tc := d.tomClient(t)

	var (
		wg      sync.WaitGroup
		saeRes  [][]record.Record
		saeErr  error
		tomRaws [][]byte
		tomErr  error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		saeRes, saeErr = vc.QueryBurst(qs)
	}()
	go func() {
		defer wg.Done()
		tomRaws, tomErr = tc.QueryRawMany(context.Background(), qs)
	}()
	wg.Wait()
	if saeErr != nil {
		t.Fatalf("SAE burst through router: %v", saeErr)
	}
	if tomErr != nil {
		t.Fatalf("TOM burst through router: %v", tomErr)
	}
	return saeRes, tomRaws
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

// TestRouterMixedBurstParity runs concurrent SAE and TOM bursts through
// the router at every group size: the verified SAE results must equal
// the in-process reference and every raw TOM payload must verify and
// carry the same records — how the upstream party servers group the
// frames is invisible to the router tier and its clients.
func TestRouterMixedBurstParity(t *testing.T) {
	qs := workload.Queries(10, workload.DefaultExtent, 88)
	qs = append(qs, record.Range{Lo: record.KeyDomain + 1, Hi: record.KeyDomain + 5}) // empty
	d := newDeployment(t, 4_000, 1, true, Config{})
	for _, g := range groupSizes {
		for lo := 0; lo < len(qs); lo += g {
			group := qs[lo:min(lo+g, len(qs))]
			sae, tomRaws := runMixedBurst(t, d, group)
			for i, q := range group {
				want := wantRecords(t, d, q)
				if !sameRecords(sae[i], want) {
					t.Fatalf("groups of %d, query %v: SAE result differs from the in-process reference", g, q)
				}
				recs, rest, err := wire.DecodeRecords(tomRaws[i])
				if err != nil {
					t.Fatalf("groups of %d: decoding TOM payload for %v: %v", g, q, err)
				}
				vo, err := mbtree.UnmarshalVO(rest)
				if err != nil {
					t.Fatalf("groups of %d: decoding TOM VO for %v: %v", g, q, err)
				}
				if err := mbtree.VerifyVO(vo, recs, q.Lo, q.Hi, d.tomOwner.Verifier()); err != nil {
					t.Fatalf("groups of %d: TOM payload for %v failed verification: %v", g, q, err)
				}
				if !sameRecords(recs, want) {
					t.Fatalf("groups of %d, query %v: TOM records differ from the in-process reference", g, q)
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
	d := newDeployment(t, 12_000, 3, false, Config{})
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
