package core

import (
	"testing"

	"sae/internal/record"
	"sae/internal/workload"
)

// TestShardedBatchParitySerialVsGrouped: routing a multi-key batch as one
// group per shard must land the system in exactly the state the serial
// per-key route produces — same ids, same verified results, same VT.
func TestShardedBatchParitySerialVsGrouped(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 8_000, 42)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	serial, err := NewShardedSystem(ds.Records, 4)
	if err != nil {
		t.Fatalf("NewShardedSystem: %v", err)
	}
	grouped, err := NewShardedSystem(ds.Records, 4)
	if err != nil {
		t.Fatalf("NewShardedSystem: %v", err)
	}

	keys := make([]record.Key, 200)
	for i := range keys {
		keys[i] = record.Key((i * 6151) % record.KeyDomain)
	}
	var serialRecs []record.Record
	for _, k := range keys {
		r, err := serial.Insert(k)
		if err != nil {
			t.Fatalf("serial Insert: %v", err)
		}
		serialRecs = append(serialRecs, r)
	}
	groupedRecs, err := grouped.InsertBatch(keys)
	if err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	if len(groupedRecs) != len(serialRecs) {
		t.Fatalf("batch returned %d records, serial %d", len(groupedRecs), len(serialRecs))
	}
	for i := range groupedRecs {
		if !groupedRecs[i].Equal(&serialRecs[i]) {
			t.Fatalf("record %d diverges: batch id %d vs serial id %d", i, groupedRecs[i].ID, serialRecs[i].ID)
		}
	}

	// Delete every third inserted record plus a few originals, both routes.
	var delIDs []record.ID
	for i := 0; i < len(groupedRecs); i += 3 {
		delIDs = append(delIDs, groupedRecs[i].ID)
	}
	for i := 0; i < 20; i++ {
		delIDs = append(delIDs, ds.Records[i*11].ID)
	}
	for _, id := range delIDs {
		if err := serial.Delete(id); err != nil {
			t.Fatalf("serial Delete: %v", err)
		}
	}
	if err := grouped.DeleteBatch(delIDs); err != nil {
		t.Fatalf("DeleteBatch: %v", err)
	}

	for _, q := range parityQueries(grouped.Plan) {
		want, err := serial.Query(q)
		if err != nil || want.VerifyErr != nil {
			t.Fatalf("serial query %v: %v / %v", q, err, want.VerifyErr)
		}
		got, err := grouped.Query(q)
		if err != nil || got.VerifyErr != nil {
			t.Fatalf("grouped query %v: %v / %v", q, err, got.VerifyErr)
		}
		if got.VT != want.VT {
			t.Fatalf("%v: grouped VT %x != serial VT %x", q, got.VT, want.VT)
		}
		if len(got.Result) != len(want.Result) {
			t.Fatalf("%v: %d records grouped, %d serial", q, len(got.Result), len(want.Result))
		}
	}
}

// TestShardedBatchTouchesOnlyOwningShards: a batch whose keys all fall in
// two shards must not issue any work to the other shards — their parties'
// storage is bit-for-bit untouched. This is the observable difference from
// the serial route, which still opened an update round per key.
func TestShardedBatchTouchesOnlyOwningShards(t *testing.T) {
	_, sharded := buildParitySystems(t, workload.UNF, 8_000, 4)
	var keys []record.Key
	for _, sh := range []int{0, 2} {
		span := sharded.Plan.Span(sh)
		for i := 0; i < 25; i++ {
			keys = append(keys, span.Lo+record.Key(i*3))
		}
	}
	before := make([]int64, len(sharded.TEs))
	for i := range sharded.TEs {
		before[i] = sharded.SPs[i].StorageBytes() + sharded.TEs[i].StorageBytes()
	}
	recs, err := sharded.InsertBatch(keys)
	if err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	for _, sh := range []int{1, 3} {
		after := sharded.SPs[sh].StorageBytes() + sharded.TEs[sh].StorageBytes()
		if after != before[sh] {
			t.Fatalf("shard %d storage changed (%d -> %d) though no key routed to it", sh, before[sh], after)
		}
	}
	for _, sh := range []int{0, 2} {
		after := sharded.SPs[sh].StorageBytes() + sharded.TEs[sh].StorageBytes()
		if after <= before[sh] {
			t.Fatalf("shard %d storage did not grow after a 25-record group", sh)
		}
	}

	// A batch with any unknown id must fail atomically: nothing dropped.
	count := func() (n int) {
		for _, sp := range sharded.SPs {
			n += sp.Count()
		}
		return n
	}
	live := count()
	if err := sharded.DeleteBatch([]record.ID{recs[0].ID, 987654321}); err == nil {
		t.Fatal("DeleteBatch accepted an unknown id")
	}
	if got := count(); got != live {
		t.Fatalf("failed DeleteBatch changed the record count: %d -> %d", live, got)
	}
	out, err := sharded.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("full scan after failed batch: %v / %v", err, out.VerifyErr)
	}

	// Empty batches are no-ops.
	if recs, err := sharded.InsertBatch(nil); err != nil || recs != nil {
		t.Fatalf("empty InsertBatch: %v / %v", recs, err)
	}
	if err := sharded.DeleteBatch(nil); err != nil {
		t.Fatalf("empty DeleteBatch: %v", err)
	}
}
