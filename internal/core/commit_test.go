package core

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"sae/internal/digest"
	"sae/internal/exec"
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

// TestConcurrentWritersVerifiedViewReaders is the write-pipeline race
// test on the read path every server runs: writers push batches through
// the group committer while readers serve bursts of four queries through
// the system's View. Every query's records must verify against the token
// served in the same burst, and each reader's stamps must never
// decrease. The writers spread their keys over the whole domain and the
// queries are wide, so a burst that saw the SP and the TE at different
// commit boundaries would fail verification. Run under -race in CI.
func TestConcurrentWritersVerifiedViewReaders(t *testing.T) {
	sys, err := OpenDurableSystem(t.TempDir(), durableDataset(t, 3000), 32)
	if err != nil {
		t.Fatalf("OpenDurableSystem: %v", err)
	}
	defer sys.Close()
	view := sys.View()
	qs := workload.Queries(8, 0.05, 321)

	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			const n = 4
			var (
				ctxs  = make([]*exec.Context, n)
				burst = make([]record.Range, n)
				recs  = make([][]record.Record, n)
				vts   [n]digest.Digest
				sc    BurstScratch
				last  uint64
			)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range burst {
					burst[j] = qs[(r+i+j)%len(qs)]
					ctxs[j] = exec.NewContext()
					recs[j] = recs[j][:0]
				}
				seq, err := view.ServeBurst(ctxs, burst, &sc, vts[:], func(qi int, rec *record.Record) error {
					recs[qi] = append(recs[qi], *rec)
					return nil
				})
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for j := range burst {
					if _, err := (Client{}).Verify(burst[j], recs[j], vts[j]); err != nil {
						t.Errorf("reader %d, query %d of a burst at seq %d: %v", r, j, seq, err)
						return
					}
				}
				if seq < last {
					t.Errorf("reader %d: stamp went backwards: %d after %d", r, seq, last)
					return
				}
				last = seq
			}
		}(r)
	}

	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 60; i++ {
				keys := make([]record.Key, 20)
				for k := range keys {
					keys[k] = record.Key((w*7919 + i*104_729 + k*500_009) % record.KeyDomain)
				}
				ins, err := sys.InsertBatch(keys)
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%3 == 0 {
					if err := sys.DeleteBatch(idsOf(ins[:5])); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	// Quiesced end state verifies and the TE tree is still sound.
	if err := sys.TE.Validate(); err != nil {
		t.Fatalf("TE validation after churn: %v", err)
	}
	out, err := sys.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("final verified query: %v / %v", err, out.VerifyErr)
	}
}
