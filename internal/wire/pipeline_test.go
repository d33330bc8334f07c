package wire

import (
	"sync"
	"testing"

	"sae/internal/record"
	"sae/internal/workload"
)

// expectCount tallies how many dataset records a range should return.
func expectCount(ds *workload.Dataset, q record.Range) int {
	want := 0
	for i := range ds.Records {
		if q.Contains(ds.Records[i].Key) {
			want++
		}
	}
	return want
}

// TestPipelinedSharedConnection drives one SP connection from many
// goroutines at once. Each request is tagged with its own id and the
// responses — possibly out of order — must land at the right caller, so
// every result's cardinality must match its own query.
func TestPipelinedSharedConnection(t *testing.T) {
	spSrv, _, ds := launchSAE(t, 5000)
	client, err := DialSP(spSrv.Addr())
	if err != nil {
		t.Fatalf("DialSP: %v", err)
	}
	defer client.Close()

	queries := workload.Queries(16, workload.DefaultExtent, 70)
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 8; rep++ {
				q := queries[(w*3+rep)%len(queries)]
				recs, err := spQuery(client, q)
				if err != nil {
					errCh <- err
					return
				}
				if len(recs) != expectCount(ds, q) {
					errCh <- &mismatchErr{q: q, got: len(recs), want: expectCount(ds, q)}
					return
				}
				for i := range recs {
					if !q.Contains(recs[i].Key) {
						errCh <- &mismatchErr{q: q, got: -1, want: -1}
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("pipelined query: %v", err)
	}
}

type mismatchErr struct {
	q         record.Range
	got, want int
}

func (e *mismatchErr) Error() string {
	return "result does not match its own query (response routed to wrong request?)"
}

// TestBurstQuery exercises the one way to send many queries end to end:
// one pipelined frame per query to each party, every result verified
// against its own token.
func TestBurstQuery(t *testing.T) {
	spSrv, teSrv, ds := launchSAE(t, 5000)
	client, err := DialVerifying(spSrv.Addr(), teSrv.Addr())
	if err != nil {
		t.Fatalf("DialVerifying: %v", err)
	}
	defer client.Close()

	qs := workload.Queries(12, workload.DefaultExtent, 71)
	results, err := client.QueryBurst(qs)
	if err != nil {
		t.Fatalf("QueryBurst: %v", err)
	}
	if len(results) != len(qs) {
		t.Fatalf("got %d results for %d queries", len(results), len(qs))
	}
	for i, q := range qs {
		if len(results[i]) != expectCount(ds, q) {
			t.Fatalf("query %d: %d records, want %d", i, len(results[i]), expectCount(ds, q))
		}
	}

	// A burst is nothing but per-query frames: one range frame per query
	// on the SP connection, no envelope around them.
	sent := client.SP.BytesSent()
	wantSent := int64(len(qs) * (HeaderSize + 8))
	if sent != wantSent {
		t.Fatalf("SP bytes sent = %d, want %d (one range frame per query)", sent, wantSent)
	}
}
