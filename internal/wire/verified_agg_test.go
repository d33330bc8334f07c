package wire

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sae/internal/agg"
	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/replica"
	"sae/internal/shard"
	"sae/internal/workload"
)

// TestAggBesideWriterDirect: a verified aggregate sent straight to a
// primary while commits land beside it is never rejected. Its scalar and
// its token must come from one commit boundary; served as two legs, each
// under its own lock, about one answer in twenty-five tore across a
// commit and was refused as forged.
func TestAggBesideWriterDirect(t *testing.T) {
	_, _, psrv := startPrimary(t, 20_000)
	client, err := DialVerifying(psrv.Addr(), psrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	wc, err := DialSP(psrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()

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
				batch[j] = record.Synthesize(record.ID(1<<40+n), record.Key(n*7919%uint64(record.KeyDomain)))
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
		t.Fatalf("aggregate beside the writer: %v", other)
	case writeErr != nil:
		t.Fatalf("writer: %v", writeErr)
	case groups.Load() == 0:
		t.Fatal("the writer committed nothing; the test raced no commit")
	}
	t.Logf("%d aggregates beside %d commit groups, %d rejected", ops, groups.Load(), rejected)
	if rejected > 0 {
		t.Fatalf("%d of %d honest aggregates rejected beside a writer", rejected, ops)
	}
}

// TestVerifiedAggOneFrame: a verified aggregate costs one 17-byte request
// and one 77-byte answer at an address that holds both parties, all on
// the SP connection; split parties still get the two legs, 17 + 33 and
// 17 + 53 bytes.
func TestVerifiedAggOneFrame(t *testing.T) {
	r := launchRoles(t, 2000)
	q := record.Range{Lo: 0, Hi: record.KeyDomain}
	for _, c := range []struct {
		name     string
		sp, te   string
		spB, teB int64
	}{
		{"primary", r.primary.Addr(), r.primary.Addr(), 17 + 77, 0},
		{"replica", r.replica.Addr(), r.replica.Addr(), 17 + 77, 0},
		{"SP+TE", r.sp.Addr(), r.te.Addr(), 17 + 33, 17 + 53},
	} {
		client, err := DialVerifying(c.sp, c.te)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Aggregate(q); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sp := client.SP.BytesSent() + client.SP.BytesReceived()
		te := client.TE.BytesSent() + client.TE.BytesReceived()
		if sp != c.spB || te != c.teB {
			t.Errorf("%s: %d B on the SP connection and %d B on the TE's, want %d and %d", c.name, sp, te, c.spB, c.teB)
		}
		client.Close()
	}
}

// TestVerifiedAggTamperedPrimary: a direct client of a primary whose SP
// inflates its scalars rejects the one-frame answer, alone and in a
// group — the token in the same frame was read from the honest TE.
func TestVerifiedAggTamperedPrimary(t *testing.T) {
	r := launchRoles(t, 2000)
	r.sys.SP.SetAggTamper(core.InflateAggTamper(1, 0))
	defer r.sys.SP.SetAggTamper(nil)
	client, err := DialVerifying(r.primary.Addr(), r.primary.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Aggregate(record.Range{Lo: 0, Hi: record.KeyDomain}); !errors.Is(err, core.ErrVerificationFailed) {
		t.Fatalf("tampered primary's aggregate error = %v, want ErrVerificationFailed", err)
	}
	if _, err := client.AggregateBurst(burstParityQueries(4)); !errors.Is(err, core.ErrVerificationFailed) {
		t.Fatalf("tampered primary's aggregate burst error = %v, want ErrVerificationFailed", err)
	}
}

// TestVerifiedAggRefusals: an answer that is not scalar ‖ token, 68
// bytes, is refused by the decoder, and a request whose range escapes
// the shard's span is refused by the server before it is grouped; both
// with ErrProtocol. A range inside the span is answered.
func TestVerifiedAggRefusals(t *testing.T) {
	for _, n := range []int{0, agg.Size, agg.TokenSize, agg.Size + agg.TokenSize - 1, agg.Size + agg.TokenSize + 1} {
		if _, _, err := decodeVerifiedAgg(make([]byte, n)); !errors.Is(err, ErrProtocol) {
			t.Errorf("decodeVerifiedAgg of %d bytes: error %v, want ErrProtocol", n, err)
		}
	}
	if _, _, err := decodeVerifiedAgg(make([]byte, agg.Size+agg.TokenSize)); err != nil {
		t.Errorf("decodeVerifiedAgg of %d bytes: %v", agg.Size+agg.TokenSize, err)
	}

	ds, err := workload.Generate(workload.UNF, 2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	plan := shard.PlanFor(ds.Records, 2)
	span := plan.Span(0)
	sys, err := core.OpenDurableSystem(t.TempDir(), plan.Partition(ds.Records)[0], 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv, err := ServePrimary("127.0.0.1:0", sys, replica.Attach(sys, 0), nil, WithShardInfo(ShardInfo{Index: 0, Plan: plan}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resps := pipeline(t, srv.Addr(), rangeFrames(MsgVerifiedAgg, []record.Range{
		span,
		{Lo: span.Hi - 10, Hi: span.Hi + 1}, // one key into shard 1
	}), 2)
	if resps[0].Type != MsgVerifiedAggResult || len(resps[0].Payload) != agg.Size+agg.TokenSize {
		t.Fatalf("in-span request: got %s of %d bytes", FrameName(resps[0].Type), len(resps[0].Payload))
	}
	if resp := resps[1]; resp.Type != MsgErr || !strings.Contains(string(resp.Payload), ErrProtocol.Error()) ||
		!strings.Contains(string(resp.Payload), "escapes shard 0's span") {
		t.Fatalf("escaping request: got %s %.100q, want the span refusal", FrameName(resp.Type), resp.Payload)
	}
}
