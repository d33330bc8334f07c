package wire

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/workload"
)

// shardedDeployment starts one SP and one TE server per shard of an
// in-process sharded system and returns their address lists.
func shardedDeployment(t *testing.T, n, shards int) (*core.ShardedSystem, []string, []string) {
	t.Helper()
	ds, err := workload.Generate(workload.UNF, n, 21)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewShardedSystem(ds.Records, shards)
	if err != nil {
		t.Fatal(err)
	}
	spAddrs := make([]string, shards)
	teAddrs := make([]string, shards)
	for i := 0; i < shards; i++ {
		spSrv, err := ServeSP("127.0.0.1:0", sys.SPs[i], nil, WithShardInfo(ShardInfo{Index: i, Plan: sys.Plan}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { spSrv.Close() })
		teSrv, err := ServeTE("127.0.0.1:0", sys.TEs[i], nil, WithShardInfo(ShardInfo{Index: i, Plan: sys.Plan}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { teSrv.Close() })
		spAddrs[i], teAddrs[i] = spSrv.Addr(), teSrv.Addr()
	}
	return sys, spAddrs, teAddrs
}

// TestShardMapRoundTrip: servers answer shard-map requests, stand-alone
// servers default to shard 0 of 1.
func TestShardMapRoundTrip(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 1_000, 22)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ServeSP("127.0.0.1:0", sys.SP, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialSP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	si, err := c.ShardMap()
	if err != nil {
		t.Fatalf("ShardMap: %v", err)
	}
	if si.Index != 0 || si.Plan.Shards() != 1 {
		t.Fatalf("stand-alone server reported shard %d of %d", si.Index, si.Plan.Shards())
	}
	plan, _ := shard.NewPlan([]record.Key{5_000_000})
	srv.SetShardInfo(ShardInfo{Index: 1, Plan: plan})
	si, err = c.ShardMap()
	if err != nil {
		t.Fatal(err)
	}
	if si.Index != 1 || si.Plan.Shards() != 2 {
		t.Fatalf("got shard %d of %d after SetShardInfo", si.Index, si.Plan.Shards())
	}
}

// TestShardedVerifyingClient: scatter-gather over real TCP with XOR token
// combination, against the in-process sharded system as the oracle.
func TestShardedVerifyingClient(t *testing.T) {
	sys, spAddrs, teAddrs := shardedDeployment(t, 10_000, 3)
	client, err := DialShardedVerifying(spAddrs, teAddrs)
	if err != nil {
		t.Fatalf("DialShardedVerifying: %v", err)
	}
	defer client.Close()
	if !client.Plan.Equal(sys.Plan) {
		t.Fatal("client plan differs from deployment plan")
	}
	qs := append(workload.Queries(5, workload.DefaultExtent, 23),
		record.Range{Lo: 0, Hi: record.KeyDomain}, // all shards
		sys.Plan.Span(1),           // boundary-exact
		record.Range{Lo: 9, Hi: 3}, // empty: no shard is asked
	)
	for _, q := range qs {
		want, err := sys.Query(q)
		if err != nil || want.VerifyErr != nil {
			t.Fatalf("oracle %v: %v / %v", q, err, want.VerifyErr)
		}
		got, err := client.Query(q)
		if err != nil {
			t.Fatalf("wire query %v: %v", q, err)
		}
		if len(got) != len(want.Result) {
			t.Fatalf("%v: %d records over wire, %d in-process", q, len(got), len(want.Result))
		}
		for i := range got {
			if got[i].ID != want.Result[i].ID {
				t.Fatalf("%v: diverges at %d", q, i)
			}
		}
	}
	// Shard 2's SP drops one record from a query spanning shards 1 and 2:
	// each shard is checked against its own token, so the failure names
	// shard 2's position in the scatter, query 1.
	sys.SPs[2].SetTamper(core.DropTamper(0))
	defer sys.SPs[2].SetTamper(nil)
	seam := sys.Plan.Span(2).Lo
	q := record.Range{Lo: seam - 100_000, Hi: seam + 200_000}
	_, err = client.Query(q)
	if !errors.Is(err, core.ErrVerificationFailed) || !strings.Contains(err.Error(), "(query 1)") {
		t.Fatalf("shard 2 dropping a record: err = %v, want %v naming query 1", err, core.ErrVerificationFailed)
	}
}

// TestShardedQueryConcurrent: queries pipeline from many goroutines over
// the shared shard connections (race detector food).
func TestShardedQueryConcurrent(t *testing.T) {
	_, spAddrs, teAddrs := shardedDeployment(t, 6_000, 3)
	client, err := DialShardedVerifying(spAddrs, teAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, q := range workload.Queries(6, workload.DefaultExtent, int64(100+w)) {
				if _, err := client.Query(q); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("concurrent query: %v", err)
		}
	}
}

// TestDialShardedRejectsMisassembly: wrong shard order and inconsistent
// plans are caught at dial time.
func TestDialShardedRejectsMisassembly(t *testing.T) {
	_, spAddrs, teAddrs := shardedDeployment(t, 4_000, 3)
	// Swap two shards' addresses: TE index attestation must catch it.
	swappedSP := []string{spAddrs[1], spAddrs[0], spAddrs[2]}
	swappedTE := []string{teAddrs[1], teAddrs[0], teAddrs[2]}
	if c, err := DialShardedVerifying(swappedSP, swappedTE); err == nil {
		c.Close()
		t.Fatal("swapped shard order accepted")
	}
	// Too few shards dialed: plan count mismatch.
	if c, err := DialShardedVerifying(spAddrs[:2], teAddrs[:2]); err == nil {
		c.Close()
		t.Fatal("partial deployment accepted")
	}
}
