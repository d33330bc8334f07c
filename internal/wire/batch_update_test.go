package wire

import (
	"testing"

	"sae/internal/record"
	"sae/internal/wal"
	"sae/internal/workload"
)

func TestBatchCodecs(t *testing.T) {
	ids := []record.ID{1, 77, 900000}
	keys := []record.Key{10, 20, 30}
	got, err := DecodeDeletes(EncodeDeletes(ids, keys), nil)
	if err != nil {
		t.Fatalf("delete batch codec: %v", err)
	}
	for i := range ids {
		if got[i] != wal.DeleteOp(ids[i], keys[i]) {
			t.Fatalf("delete %d round trip: got (%d,%d), want (%d,%d)", i, got[i].ID, got[i].Key, ids[i], keys[i])
		}
	}
	if _, err := DecodeDeletes([]byte{0, 0, 0, 9, 1, 2}, nil); err == nil {
		t.Fatal("DecodeDeletes accepted an implausible count")
	}
	recs := []record.Record{record.Synthesize(5, 50), record.Synthesize(6, 60)}
	ins, err := DecodeInserts(EncodeRecords(recs), got[:0])
	if err != nil {
		t.Fatalf("insert batch codec: %v", err)
	}
	for i := range recs {
		if ins[i] != wal.InsertOp(recs[i]) {
			t.Fatalf("insert %d round trip: got %v, want %v", i, &ins[i].Rec, &recs[i])
		}
	}
	if _, err := DecodeInserts(append(EncodeRecords(recs), 0), nil); err == nil {
		t.Fatal("DecodeInserts accepted a trailing byte")
	}
}

// TestOwnerClientBatchUpdates pushes an owner's insert and delete
// batches through the wire batch frames, one frame per batch to each
// party, and checks verified queries see exactly the committed state.
func TestOwnerClientBatchUpdates(t *testing.T) {
	spSrv, teSrv, ds := launchSAE(t, 3000)
	client, err := DialVerifying(spSrv.Addr(), teSrv.Addr())
	if err != nil {
		t.Fatalf("DialVerifying: %v", err)
	}
	defer client.Close()
	parties := []*Conn{client.SP.Conn, client.TE.Conn}

	ins := make([]record.Record, 120)
	for i := range ins {
		ins[i] = record.Synthesize(record.ID(len(ds.Records)+1+i), record.Key((i*4093)%record.KeyDomain))
	}
	var delIDs []record.ID
	var delKeys []record.Key
	for i := 0; i < 40; i++ {
		delIDs = append(delIDs, ins[i*2].ID)
		delKeys = append(delKeys, ins[i*2].Key)
	}
	for _, c := range parties {
		if err := c.InsertBatch(ins); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
		if err := c.DeleteBatch(delIDs, delKeys); err != nil {
			t.Fatalf("DeleteBatch: %v", err)
		}
	}

	// Verified queries over the updated state: results must verify
	// against the TE's tokens, so SP and TE saw identical batches.
	deleted := make(map[record.ID]bool, len(delIDs))
	for _, id := range delIDs {
		deleted[id] = true
	}
	for _, q := range workload.Queries(10, workload.DefaultExtent, 777) {
		recs, err := client.Query(q)
		if err != nil {
			t.Fatalf("verified query after batches: %v", err)
		}
		want := 0
		for i := range ds.Records {
			if q.Contains(ds.Records[i].Key) {
				want++
			}
		}
		for i := range ins {
			if !deleted[ins[i].ID] && q.Contains(ins[i].Key) {
				want++
			}
		}
		if len(recs) != want {
			t.Fatalf("query %v returned %d records, want %d", q, len(recs), want)
		}
	}
}
