package wire

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/tom"
	"sae/internal/workload"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Frame{Type: MsgQuery, ID: 0xDEADBEEF, Payload: []byte{1, 2, 3}}
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatalf("WriteFrame: %v", err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	if out.Type != in.Type || out.ID != in.ID || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestFrameRejectsHugePayload(t *testing.T) {
	var buf bytes.Buffer
	// type + id + a length far beyond MaxPayload.
	buf.Write([]byte{byte(MsgQuery), 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrProtocol) {
		t.Fatalf("ReadFrame(huge) error = %v, want ErrProtocol", err)
	}
}

func TestRangeCodec(t *testing.T) {
	q := record.Range{Lo: 123, Hi: 456789}
	got, err := DecodeRange(EncodeRange(q))
	if err != nil || got != q {
		t.Fatalf("range codec: got %v err %v", got, err)
	}
	if _, err := DecodeRange([]byte{1, 2}); !errors.Is(err, ErrProtocol) {
		t.Fatal("DecodeRange accepted a short payload")
	}
}

func TestRecordsCodec(t *testing.T) {
	recs := []record.Record{record.Synthesize(1, 10), record.Synthesize(2, 20)}
	buf := append(EncodeRecords(recs), 0xAA, 0xBB)
	got, rest, err := DecodeRecords(buf)
	if err != nil {
		t.Fatalf("DecodeRecords: %v", err)
	}
	if len(got) != 2 || !got[0].Equal(&recs[0]) || !got[1].Equal(&recs[1]) {
		t.Fatal("records round trip mismatch")
	}
	if !bytes.Equal(rest, []byte{0xAA, 0xBB}) {
		t.Fatal("trailing bytes not preserved")
	}
	if _, _, err := DecodeRecords([]byte{0, 0, 0, 5, 1}); !errors.Is(err, ErrProtocol) {
		t.Fatal("DecodeRecords accepted a truncated record list")
	}
}

// BenchmarkDecodeRecords decodes a range_scan-sized answer: 500 records.
func BenchmarkDecodeRecords(b *testing.B) {
	recs := make([]record.Record, 500)
	for i := range recs {
		recs[i] = record.Synthesize(record.ID(i+1), record.Key(i))
	}
	enc := EncodeRecords(recs)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRecords(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// launchSAE boots an SP and a TE over loopback with a shared dataset.
func launchSAE(t *testing.T, n int) (*SPServer, *TEServer, *workload.Dataset) {
	t.Helper()
	ds, err := workload.Generate(workload.UNF, n, 55)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sp := core.NewServiceProvider(pagestore.NewMem())
	te := core.NewTrustedEntity(pagestore.NewMem())
	if err := sp.Load(ds.Records); err != nil {
		t.Fatalf("sp.Load: %v", err)
	}
	if err := te.Load(ds.Records); err != nil {
		t.Fatalf("te.Load: %v", err)
	}
	spSrv, err := ServeSP("127.0.0.1:0", sp, nil)
	if err != nil {
		t.Fatalf("ServeSP: %v", err)
	}
	t.Cleanup(func() { spSrv.Close() })
	teSrv, err := ServeTE("127.0.0.1:0", te, nil)
	if err != nil {
		t.Fatalf("ServeTE: %v", err)
	}
	t.Cleanup(func() { teSrv.Close() })
	return spSrv, teSrv, ds
}

func TestNetworkedVerifiedQuery(t *testing.T) {
	spSrv, teSrv, ds := launchSAE(t, 5000)
	client, err := DialVerifying(spSrv.Addr(), teSrv.Addr())
	if err != nil {
		t.Fatalf("DialVerifying: %v", err)
	}
	defer client.Close()

	for _, q := range workload.Queries(10, workload.DefaultExtent, 56) {
		recs, err := client.Query(q)
		if err != nil {
			t.Fatalf("Query(%v): %v", q, err)
		}
		want := 0
		for i := range ds.Records {
			if q.Contains(ds.Records[i].Key) {
				want++
			}
		}
		if len(recs) != want {
			t.Fatalf("Query(%v) = %d records, want %d", q, len(recs), want)
		}
	}
}

func TestNetworkedTokenBytes(t *testing.T) {
	// The Figure 5 claim measured on a real socket: the TE→client exchange
	// per query is a handful of bytes (frame overhead + 20-byte token).
	spSrv, teSrv, _ := launchSAE(t, 3000)
	_ = spSrv
	te, err := DialTE(teSrv.Addr())
	if err != nil {
		t.Fatalf("DialTE: %v", err)
	}
	defer te.Close()
	const queries = 10
	for _, q := range workload.Queries(queries, workload.DefaultExtent, 57) {
		if _, err := te.GenerateVTMany(context.Background(), []record.Range{q}); err != nil {
			t.Fatalf("GenerateVTMany: %v", err)
		}
	}
	perQuery := te.BytesReceived() / queries
	if perQuery != HeaderSize+digest.Size {
		t.Fatalf("TE->client bytes per query = %d, want %d", perQuery, HeaderSize+digest.Size)
	}
}

func TestNetworkedUpdateFlow(t *testing.T) {
	spSrv, teSrv, _ := launchSAE(t, 2000)
	client, err := DialVerifying(spSrv.Addr(), teSrv.Addr())
	if err != nil {
		t.Fatalf("DialVerifying: %v", err)
	}
	defer client.Close()

	// The owner pushes an insert to both parties over the wire: a batch
	// of one.
	fresh := record.Synthesize(900_001, 4_242_424)
	if err := client.SP.InsertBatch([]record.Record{fresh}); err != nil {
		t.Fatalf("SP.InsertBatch: %v", err)
	}
	if err := client.TE.InsertBatch([]record.Record{fresh}); err != nil {
		t.Fatalf("TE.InsertBatch: %v", err)
	}
	recs, err := client.Query(record.Range{Lo: 4_242_000, Hi: 4_243_000})
	if err != nil {
		t.Fatalf("Query after insert: %v", err)
	}
	found := false
	for i := range recs {
		if recs[i].ID == fresh.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted record not returned after networked update")
	}
	// And a delete.
	if err := client.SP.DeleteBatch([]record.ID{fresh.ID}, []record.Key{fresh.Key}); err != nil {
		t.Fatalf("SP.DeleteBatch: %v", err)
	}
	if err := client.TE.DeleteBatch([]record.ID{fresh.ID}, []record.Key{fresh.Key}); err != nil {
		t.Fatalf("TE.DeleteBatch: %v", err)
	}
	recs, err = client.Query(record.Range{Lo: 4_242_000, Hi: 4_243_000})
	if err != nil {
		t.Fatalf("Query after delete: %v", err)
	}
	for i := range recs {
		if recs[i].ID == fresh.ID {
			t.Fatal("deleted record still returned")
		}
	}
}

func TestNetworkedTamperDetection(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 3000, 58)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sp := core.NewServiceProvider(pagestore.NewMem())
	te := core.NewTrustedEntity(pagestore.NewMem())
	if err := sp.Load(ds.Records); err != nil {
		t.Fatal(err)
	}
	if err := te.Load(ds.Records); err != nil {
		t.Fatal(err)
	}
	// Find a query with results, then make the networked SP malicious.
	var q record.Range
	for _, cand := range workload.Queries(50, workload.DefaultExtent, 59) {
		cnt := 0
		for i := range ds.Records {
			if cand.Contains(ds.Records[i].Key) {
				cnt++
			}
		}
		if cnt >= 2 {
			q = cand
			break
		}
	}
	sp.SetTamper(core.DropTamper(0))

	spSrv, err := ServeSP("127.0.0.1:0", sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer spSrv.Close()
	teSrv, err := ServeTE("127.0.0.1:0", te, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer teSrv.Close()

	client, err := DialVerifying(spSrv.Addr(), teSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Query(q); !errors.Is(err, core.ErrVerificationFailed) {
		t.Fatalf("networked drop attack not detected: %v", err)
	}
}

func TestNetworkedTOM(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 3000, 60)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	owner, err := tom.NewOwner()
	if err != nil {
		t.Fatal(err)
	}
	provider := tom.NewProvider(pagestore.NewMem())
	if err := provider.Load(ds.Records, owner); err != nil {
		t.Fatal(err)
	}
	srv, err := ServeTOM("127.0.0.1:0", provider, owner, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := DialVerifyingTOM(srv.Addr(), owner.Verifier())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	q := workload.Queries(1, workload.DefaultExtent, 61)[0]
	recs, err := client.Query(q)
	if err != nil {
		t.Fatalf("TOM networked query: %v", err)
	}
	want := 0
	for i := range ds.Records {
		if q.Contains(ds.Records[i].Key) {
			want++
		}
	}
	if len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
	// VO bytes on the wire dwarf the SAE token.
	if client.BytesReceived() < 1000 {
		t.Fatalf("TOM response suspiciously small: %d bytes", client.BytesReceived())
	}
}

// TestServerRejectsUnknownMessage: a frame a server does not serve — a
// response type, or a retired number (5-6 were the single insert and
// delete) — is refused by name, by a stand-alone SP and by a primary.
func TestServerRejectsUnknownMessage(t *testing.T) {
	spSrv, _, _ := launchSAE(t, 100)
	_, _, primary := startPrimary(t, 100)
	one := record.Synthesize(1, 1) // the payload MsgInsert used to carry
	for _, addr := range []string{spSrv.Addr(), primary.Addr()} {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, typ := range []MsgType{MsgVT, 5, 6} {
			_, err = c.RoundTripCtx(context.Background(), Frame{Type: typ, Payload: one.Marshal()})
			if err == nil || !strings.Contains(err.Error(), "cannot handle") {
				t.Fatalf("frame %d at %s: error = %v", typ, addr, err)
			}
		}
	}
}

// TestPipelinedRefusalIsServerError: a server's refusal on the pipelined
// path is a *ServerError exactly as on the single-frame path — the
// distinction the router's never-fail-over rule rests on — and it costs
// the burst, not the connection.
func TestPipelinedRefusalIsServerError(t *testing.T) {
	spSrv, teSrv, _ := launchSAE(t, 500)
	// Each client is dialed at the OTHER party, which refuses its frames.
	sp, err := DialSP(teSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	te, err := DialTE(spSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer te.Close()
	qs := workload.Queries(4, workload.DefaultExtent, 63)
	calls := []struct {
		name string
		call func() error
		conn *Conn
	}{
		{"QueryRawMany", func() error { _, err := sp.QueryRawMany(context.Background(), qs); return err }, sp.Conn},
		{"AggregateMany", func() error { _, err := sp.AggregateMany(context.Background(), qs); return err }, sp.Conn},
		{"GenerateVTMany", func() error { _, err := te.GenerateVTMany(context.Background(), qs); return err }, te.Conn},
	}
	for _, c := range calls {
		err := c.call()
		var se *ServerError
		if !errors.As(err, &se) {
			t.Fatalf("%s against a refusing server: %v (%T), want a *ServerError", c.name, err, err)
		}
		if !strings.Contains(se.Msg, "query 0") || !strings.Contains(se.Msg, "cannot handle") {
			t.Fatalf("%s: ServerError %q does not carry the query index and the refusal", c.name, se.Msg)
		}
		if err := c.conn.Err(); err != nil {
			t.Fatalf("%s: the refusal broke the connection: %v", c.name, err)
		}
		if _, err := c.conn.ShardMap(); err != nil {
			t.Fatalf("%s: connection unusable after the refusal: %v", c.name, err)
		}
	}
}

func TestConcurrentNetworkedClients(t *testing.T) {
	spSrv, teSrv, _ := launchSAE(t, 5000)
	queries := workload.Queries(8, workload.DefaultExtent, 62)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client, err := DialVerifying(spSrv.Addr(), teSrv.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer client.Close()
			for rep := 0; rep < 5; rep++ {
				if _, err := client.Query(queries[(w+rep)%len(queries)]); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent client: %v", err)
	}
}
