package wire

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"sae/internal/core"
	"sae/internal/pagestore"
	"sae/internal/record"
)

func fastpathDataset(n int) []record.Record {
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Synthesize(record.ID(i+1), record.Key((i*4801)%record.KeyDomain))
	}
	sort.Slice(recs, func(i, j int) bool { return record.SortByKey(recs[i], recs[j]) < 0 })
	return recs
}

// TestResponseBufferReuseAfterFlight hammers one SP server with many
// concurrent pipelined queries of different sizes from several
// connections, so pooled response buffers are constantly recycled across
// in-flight requests. Every response must carry exactly its own query's
// records — a buffer reused before its frame finished writing would
// corrupt interleaved responses. Run under -race in CI.
func TestResponseBufferReuseAfterFlight(t *testing.T) {
	recs := fastpathDataset(4000)
	sp := core.NewServiceProvider(pagestore.NewMem())
	if err := sp.Load(recs); err != nil {
		t.Fatalf("SP load: %v", err)
	}
	srv, err := ServeSP("127.0.0.1:0", sp, nil)
	if err != nil {
		t.Fatalf("ServeSP: %v", err)
	}
	defer srv.Close()

	// Reference results computed locally.
	refFor := func(q record.Range) []record.Record {
		var out []record.Record
		for i := range recs {
			if q.Contains(recs[i].Key) {
				out = append(out, recs[i])
			}
		}
		return out
	}
	queries := make([]record.Range, 16)
	refs := make([][]record.Record, len(queries))
	for i := range queries {
		lo := recs[(i*211)%3800].Key
		hi := recs[(i*211)%3800+17*(i%12)].Key
		if hi < lo {
			lo, hi = hi, lo
		}
		queries[i] = record.Range{Lo: lo, Hi: hi}
		refs[i] = refFor(queries[i])
	}

	const conns = 4
	const perConn = 6
	var wg sync.WaitGroup
	errs := make(chan error, conns*perConn)
	for c := 0; c < conns; c++ {
		client, err := DialSP(srv.Addr())
		if err != nil {
			t.Fatalf("DialSP: %v", err)
		}
		defer client.Close()
		for g := 0; g < perConn; g++ {
			wg.Add(1)
			go func(client *SPClient, seed int) {
				defer wg.Done()
				for i := 0; i < 30; i++ {
					qi := (seed*13 + i) % len(queries)
					got, err := spQuery(client, queries[qi])
					if err != nil {
						errs <- fmt.Errorf("query %d: %w", qi, err)
						return
					}
					want := refs[qi]
					if len(got) != len(want) {
						errs <- fmt.Errorf("query %d: %d records, want %d", qi, len(got), len(want))
						return
					}
					for j := range want {
						if !got[j].Equal(&want[j]) {
							errs <- fmt.Errorf("query %d: record %d corrupted (buffer reuse?)", qi, j)
							return
						}
					}
				}
			}(client, c*perConn+g)
		}
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestVerifyingClientFastPath runs the full verified protocol over TCP —
// zero-copy wire verification against real TE tokens — including a
// tampering SP that must be caught.
func TestVerifyingClientFastPath(t *testing.T) {
	recs := fastpathDataset(3000)
	sp := core.NewServiceProvider(pagestore.NewMem())
	te := core.NewTrustedEntity(pagestore.NewMem())
	if err := sp.Load(recs); err != nil {
		t.Fatalf("SP load: %v", err)
	}
	if err := te.Load(recs); err != nil {
		t.Fatalf("TE load: %v", err)
	}
	spSrv, err := ServeSP("127.0.0.1:0", sp, nil)
	if err != nil {
		t.Fatalf("ServeSP: %v", err)
	}
	defer spSrv.Close()
	teSrv, err := ServeTE("127.0.0.1:0", te, nil)
	if err != nil {
		t.Fatalf("ServeTE: %v", err)
	}
	defer teSrv.Close()

	client, err := DialVerifying(spSrv.Addr(), teSrv.Addr())
	if err != nil {
		t.Fatalf("DialVerifying: %v", err)
	}
	defer client.Close()

	q := record.Range{Lo: recs[100].Key, Hi: recs[900].Key}
	got, err := client.Query(q)
	if err != nil {
		t.Fatalf("verified query: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("empty verified result for a populated range")
	}
	for i := range got {
		if !q.Contains(got[i].Key) {
			t.Fatalf("record %d outside range", i)
		}
	}

	// Burst path too.
	qs := []record.Range{q, {Lo: 1, Hi: 2}, {Lo: recs[2000].Key, Hi: recs[2500].Key}}
	results, err := client.QueryBurst(qs)
	if err != nil {
		t.Fatalf("verified burst: %v", err)
	}
	if len(results) != len(qs) {
		t.Fatalf("%d results for %d queries", len(results), len(qs))
	}
	if len(results[0]) != len(got) {
		t.Fatalf("burst result %d records, single result %d", len(results[0]), len(got))
	}

	// A tampering SP must fail verification through the zero-copy path.
	sp.SetTamper(core.DropTamper(0))
	if _, err := client.Query(q); err == nil {
		t.Fatal("zero-copy verification accepted a tampered result")
	}
	sp.SetTamper(nil)
	if _, err := client.Query(q); err != nil {
		t.Fatalf("verification after clearing tamper: %v", err)
	}
}

// spQuery fetches one range's records from an SP, unverified.
func spQuery(c *SPClient, q record.Range) ([]record.Record, error) {
	raws, err := c.QueryRawMany(context.Background(), []record.Range{q})
	if err != nil {
		return nil, err
	}
	defer Release(raws[0]) // DecodeRecords copies
	recs, _, err := DecodeRecords(raws[0])
	return recs, err
}
