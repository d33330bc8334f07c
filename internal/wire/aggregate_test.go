package wire

import (
	"errors"
	"testing"

	"sae/internal/agg"
	"sae/internal/core"
	"sae/internal/record"
)

// foldAgg folds the reference aggregate by linear scan over the dataset.
func foldAgg(recs []record.Record, q record.Range) agg.Agg {
	var a agg.Agg
	for i := range recs {
		if q.Contains(recs[i].Key) {
			a = a.Add(recs[i].Key)
		}
	}
	return a
}

// TestAggregateOverWire runs the verified aggregation fast path through
// real TCP against every role that serves both halves — the stand-alone
// SP+TE pair, a primary, a replica: every scalar must verify and equal
// the linear-scan fold, one at a time and pipelined at every group size.
func TestAggregateOverWire(t *testing.T) {
	r := launchRoles(t, 4000)
	qs := burstParityQueries(20)
	for _, pair := range [][2]string{
		{r.sp.Addr(), r.te.Addr()},
		{r.primary.Addr(), r.primary.Addr()},
		{r.replica.Addr(), r.replica.Addr()},
	} {
		client, err := DialVerifying(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs {
			a, err := client.Aggregate(q)
			if err != nil {
				t.Fatalf("%s Aggregate(%v): %v", pair[0], q, err)
			}
			if want := foldAgg(r.ds.Records, q).Normalize(); a != want {
				t.Fatalf("%s Aggregate(%v) = %v, want %v", pair[0], q, a, want)
			}
		}
		for _, g := range groupSizes {
			for lo := 0; lo < len(qs); lo += g {
				group := qs[lo:min(lo+g, len(qs))]
				as, err := client.AggregateBurst(group)
				if err != nil {
					t.Fatalf("%s AggregateBurst, groups of %d: %v", pair[0], g, err)
				}
				for i, q := range group {
					if want := foldAgg(r.ds.Records, q).Normalize(); as[i] != want {
						t.Fatalf("%s AggregateBurst, groups of %d (%v) = %v, want %v", pair[0], g, q, as[i], want)
					}
				}
			}
		}
		client.Close()
	}
}

// TestAggregateWireTampered: a forged SP scalar crossing the wire must be
// rejected by the client's token comparison, alone and in a group.
func TestAggregateWireTampered(t *testing.T) {
	r := launchRoles(t, 2000)
	r.servedSP.SetAggTamper(core.InflateAggTamper(1, 0))
	client, err := DialVerifying(r.sp.Addr(), r.te.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	q := record.Range{Lo: 0, Hi: record.KeyDomain}
	if _, err := client.Aggregate(q); !errors.Is(err, core.ErrVerificationFailed) {
		t.Fatalf("tampered Aggregate error = %v, want ErrVerificationFailed", err)
	}
	if _, err := client.AggregateBurst(burstParityQueries(4)); !errors.Is(err, core.ErrVerificationFailed) {
		t.Fatalf("tampered AggregateBurst error = %v, want ErrVerificationFailed", err)
	}
}

// TestTOMAggregateOverWire runs the TOM aggregation fast path through real
// TCP: the replayed VO must produce the fold scalar.
func TestTOMAggregateOverWire(t *testing.T) {
	r := launchRoles(t, 3000)
	client, err := DialVerifyingTOM(r.tom.Addr(), r.owner.Verifier())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for _, q := range burstParityQueries(12) {
		a, err := client.Aggregate(q)
		if err != nil {
			t.Fatalf("TOM Aggregate(%v): %v", q, err)
		}
		if want := foldAgg(r.ds.Records, q).Normalize(); a != want {
			t.Fatalf("TOM Aggregate(%v) = %v, want %v", q, a, want)
		}
	}
}

// TestShardedAggregateOverWire scatters verified aggregate queries across
// a real sharded TCP deployment, with the in-process sharded system as
// the oracle.
func TestShardedAggregateOverWire(t *testing.T) {
	sys, spAddrs, teAddrs := shardedDeployment(t, 8000, 3)
	client, err := DialShardedVerifying(spAddrs, teAddrs)
	if err != nil {
		t.Fatalf("DialShardedVerifying: %v", err)
	}
	defer client.Close()
	for _, q := range burstParityQueries(15) {
		a, err := client.Aggregate(q)
		if err != nil {
			t.Fatalf("sharded Aggregate(%v): %v", q, err)
		}
		oracle, err := sys.Aggregate(q)
		if err != nil {
			t.Fatalf("in-process sharded Aggregate(%v): %v", q, err)
		}
		if oracle.VerifyErr != nil {
			t.Fatalf("in-process sharded aggregate rejected for %v: %v", q, oracle.VerifyErr)
		}
		if a != oracle.Agg {
			t.Fatalf("sharded Aggregate(%v) = %v, in-process oracle %v", q, a, oracle.Agg)
		}
	}
}

// TestShardedAggregateWireTampered: one shard SP forging its partial must
// fail that shard's token comparison at the scatter client.
func TestShardedAggregateWireTampered(t *testing.T) {
	sys, spAddrs, teAddrs := shardedDeployment(t, 6000, 3)
	sys.SPs[1].SetAggTamper(core.InflateAggTamper(3, 0))
	client, err := DialShardedVerifying(spAddrs, teAddrs)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	q := record.Range{Lo: 0, Hi: record.KeyDomain}
	if _, err := client.Aggregate(q); !errors.Is(err, core.ErrVerificationFailed) {
		t.Fatalf("tampered sharded Aggregate error = %v, want ErrVerificationFailed", err)
	}
}
