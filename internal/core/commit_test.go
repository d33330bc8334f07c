package core

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sae/internal/digest"
	"sae/internal/record"
	"sae/internal/wal"
	"sae/internal/workload"
)

func idsOf(recs []record.Record) []record.ID {
	ids := make([]record.ID, len(recs))
	for i := range recs {
		ids[i] = recs[i].ID
	}
	return ids
}

func newCommitterFor(t *testing.T, sys *System, maxGroup int, withWAL bool) *GroupCommitter {
	t.Helper()
	var log *wal.Log
	if withWAL {
		var err error
		log, err = wal.Create(filepath.Join(t.TempDir(), "wal.log"))
		if err != nil {
			t.Fatalf("wal.Create: %v", err)
		}
	}
	gc := NewGroupCommitter(sys.Owner, sys.SP, sys.TE, log, maxGroup)
	t.Cleanup(func() { gc.Close() })
	return gc
}

// TestGroupCommitParitySerialVsGrouped applies the same update sequence
// through the serial per-key path and through the group committer; every
// query result and every verification token must come out identical —
// grouping is a scheduling change, not a semantic one.
func TestGroupCommitParitySerialVsGrouped(t *testing.T) {
	const n = 2000
	serial, ds := newTestSystem(t, n, workload.UNF)
	grouped, err := NewSystem(ds.Records)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	gc := newCommitterFor(t, grouped, 16, true)

	// Same keys, same order, same ids on both sides.
	insertKeys := make([]record.Key, 300)
	for i := range insertKeys {
		insertKeys[i] = record.Key((i * 7919) % record.KeyDomain)
	}
	var serialIns, groupedIns []record.Record
	for _, k := range insertKeys {
		r, err := serial.Insert(k)
		if err != nil {
			t.Fatalf("serial insert: %v", err)
		}
		serialIns = append(serialIns, r)
	}
	for lo := 0; lo < len(insertKeys); lo += 25 {
		hi := min(lo+25, len(insertKeys))
		recs, err := gc.InsertBatch(insertKeys[lo:hi])
		if err != nil {
			t.Fatalf("grouped insert: %v", err)
		}
		groupedIns = append(groupedIns, recs...)
	}
	for i := range serialIns {
		if !serialIns[i].Equal(&groupedIns[i]) {
			t.Fatalf("insert %d diverged: serial id %d, grouped id %d", i, serialIns[i].ID, groupedIns[i].ID)
		}
	}
	// Delete every third inserted record plus some originals.
	var delIDs []record.ID
	for i := 0; i < len(serialIns); i += 3 {
		delIDs = append(delIDs, serialIns[i].ID)
	}
	for i := 0; i < 50; i++ {
		delIDs = append(delIDs, ds.Records[i*13].ID)
	}
	for _, id := range delIDs {
		if err := serial.Delete(id); err != nil {
			t.Fatalf("serial delete: %v", err)
		}
	}
	if err := gc.DeleteBatch(delIDs); err != nil {
		t.Fatalf("grouped delete: %v", err)
	}

	if sc, gcount := serial.Owner.Count(), grouped.Owner.Count(); sc != gcount {
		t.Fatalf("owner counts diverged: serial %d, grouped %d", sc, gcount)
	}
	st := gc.Stats()
	if st.Ops != int64(len(insertKeys)+len(delIDs)) {
		t.Fatalf("committer saw %d ops, want %d", st.Ops, len(insertKeys)+len(delIDs))
	}
	if st.Groups >= st.Ops {
		t.Fatalf("no grouping happened: %d groups for %d ops", st.Groups, st.Ops)
	}
	if st.Syncs != st.Groups {
		t.Fatalf("%d fsyncs for %d groups, want one per group", st.Syncs, st.Groups)
	}

	for _, q := range workload.Queries(25, workload.DefaultExtent, 777) {
		so, err := serial.Query(q)
		if err != nil {
			t.Fatalf("serial query: %v", err)
		}
		gro, err := grouped.Query(q)
		if err != nil {
			t.Fatalf("grouped query: %v", err)
		}
		if so.VerifyErr != nil || gro.VerifyErr != nil {
			t.Fatalf("verification failed: serial %v, grouped %v", so.VerifyErr, gro.VerifyErr)
		}
		if len(so.Result) != len(gro.Result) {
			t.Fatalf("result sizes diverged for %v: %d vs %d", q, len(so.Result), len(gro.Result))
		}
		for i := range so.Result {
			if !so.Result[i].Equal(&gro.Result[i]) {
				t.Fatalf("result %d diverged for %v", i, q)
			}
		}
		if so.VT != gro.VT {
			t.Fatalf("VT diverged for %v", q)
		}
	}
}

// TestCommitStatsCountAckedOps checks that Stats counts a group before
// its waiters are acked: read right after InsertBatch returns, Ops must
// already include that batch. Counting after the ack let the leader lag
// its own acks on a multicore run (CI races it at -cpu 1,2,4).
func TestCommitStatsCountAckedOps(t *testing.T) {
	sys, _ := newTestSystem(t, 200, workload.UNF)
	gc := newCommitterFor(t, sys, 0, false)
	lags := 0
	for i := 0; i < 2000; i++ {
		if _, err := gc.InsertBatch([]record.Key{record.Key(i * 4999 % record.KeyDomain)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if st := gc.Stats(); st.Ops != int64(i+1) || st.Groups != int64(i+1) {
			lags++
		}
	}
	if lags > 0 {
		t.Fatalf("Stats lagged the acked inserts %d times in 2000", lags)
	}
}

// TestGroupCommitterCoalescesConcurrentWriters deterministically forces
// a pile-up — the commit lock is held (as a snapshot reader would) while
// hundreds of writers enqueue — then releases it and checks the leader
// drains the backlog in large groups, acking every waiter.
func TestGroupCommitterCoalescesConcurrentWriters(t *testing.T) {
	sys, _ := newTestSystem(t, 1000, workload.UNF)
	gc := newCommitterFor(t, sys, 0, true)
	const writers = 512
	gc.commitMu.RLock() // stall group application, not enqueueing
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if _, err := gc.Insert(record.Key(w % record.KeyDomain)); err != nil {
				errCh <- err
			}
		}(w)
	}
	// Every writer enqueues immediately (only the apply is stalled); give
	// the goroutines a moment to line up, then open the gate.
	for deadline := 0; deadline < 200; deadline++ {
		gc.mu.Lock()
		queued := len(gc.queue)
		gc.mu.Unlock()
		if queued >= writers-1 { // the first op may already sit in the stalled group
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	gc.commitMu.RUnlock()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("concurrent insert: %v", err)
	}
	st := gc.Stats()
	if st.Ops != writers {
		t.Fatalf("committed %d ops, want %d", st.Ops, writers)
	}
	if st.Groups > 1+(writers+DefaultMaxGroup-1)/DefaultMaxGroup {
		t.Fatalf("backlog drained in %d groups, want close to %d", st.Groups, writers/DefaultMaxGroup)
	}
	if got := sys.Owner.Count(); got != 1000+writers {
		t.Fatalf("owner count %d, want %d", got, 1000+writers)
	}
	out, err := sys.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("post-commit verified query: %v / %v", err, out.VerifyErr)
	}
}

// TestSnapshotPairFrozenUnderWrites opens a consistent SP+TE snapshot
// pair, keeps committing groups, and checks the snapshot still serves
// its generation bit-for-bit — results and tokens alike — while the
// live system moves on.
func TestSnapshotPairFrozenUnderWrites(t *testing.T) {
	sys, _ := newTestSystem(t, 3000, workload.UNF)
	gc := newCommitterFor(t, sys, 8, false)
	qs := workload.Queries(10, workload.DefaultExtent, 555)

	sps, tes, err := gc.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	defer sps.Close()
	defer tes.Close()

	type frozen struct {
		recs []record.Record
		vt   digest.Digest
	}
	var want []frozen
	for _, q := range qs {
		recs, _, err := sps.Query(q)
		if err != nil {
			t.Fatalf("snapshot query: %v", err)
		}
		vt, _, err := tes.GenerateVT(q)
		if err != nil {
			t.Fatalf("snapshot VT: %v", err)
		}
		if _, err := (Client{}).Verify(q, recs, vt); err != nil {
			t.Fatalf("snapshot pair does not verify for %v: %v", q, err)
		}
		want = append(want, frozen{recs: recs, vt: vt})
	}

	// Churn: inserts and deletes land in the committed state.
	keys := make([]record.Key, 400)
	for i := range keys {
		keys[i] = record.Key((i * 104729) % record.KeyDomain)
	}
	ins, err := gc.InsertBatch(keys)
	if err != nil {
		t.Fatalf("churn insert: %v", err)
	}
	if err := gc.DeleteBatch(idsOf(ins[:100])); err != nil {
		t.Fatalf("churn delete: %v", err)
	}

	for i, q := range qs {
		recs, _, err := sps.Query(q)
		if err != nil {
			t.Fatalf("snapshot re-query: %v", err)
		}
		vt, _, err := tes.GenerateVT(q)
		if err != nil {
			t.Fatalf("snapshot re-VT: %v", err)
		}
		if vt != want[i].vt {
			t.Fatalf("snapshot VT changed under writes for %v", q)
		}
		if len(recs) != len(want[i].recs) {
			t.Fatalf("snapshot result size changed under writes for %v", q)
		}
		for j := range recs {
			if !recs[j].Equal(&want[i].recs[j]) {
				t.Fatalf("snapshot record %d changed under writes for %v", j, q)
			}
		}
	}
}
