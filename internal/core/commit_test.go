package core

import (
	"path/filepath"
	"slices"
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

	if sc, gcount := serial.SP.Count(), grouped.SP.Count(); sc != gcount {
		t.Fatalf("record counts diverged: serial %d, grouped %d", sc, gcount)
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
	if got := sys.SP.Count(); got != 1000+writers {
		t.Fatalf("record count %d, want %d", got, 1000+writers)
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
				ctxs    = make([]*exec.Context, n)
				burst   = make([]record.Range, n)
				recs    = make([][]record.Record, n)
				vts     [n]digest.Digest
				sc      BurstScratch
				scratch record.Record
				last    uint64
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
				seq, err := view.ServeBurst(ctxs, burst, &sc, vts[:], func(qi int, enc []byte) error {
					return record.EachEncoded(enc, &scratch, func(r *record.Record) error {
						recs[qi] = append(recs[qi], *r)
						return nil
					})
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

// TestViewReadersRaceTailPageWrites races verified bursts against appends
// and deletes that rewrite the heap's tail page in place. Every insert
// lands on the tail page and every delete here tombstones a slot there,
// inside the range the readers query, so the readers' served bytes are
// borrowed from exactly the page the writers rewrite: under -race, a
// serve that read page bytes outside the commit lock would be reported,
// and every burst's answer must verify against its token.
func TestViewReadersRaceTailPageWrites(t *testing.T) {
	sys, err := OpenDurableSystem(t.TempDir(), durableDataset(t, 2000), 16)
	if err != nil {
		t.Fatalf("OpenDurableSystem: %v", err)
	}
	defer sys.Close()
	view := sys.View()
	q := record.Range{Lo: 4_000_000, Hi: 4_100_000}
	base, _, _, err := view.ServeVerified(q, func(*record.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	seen := make([]int, 3)
	for r := range seen {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			vp := NewVerifyPool(1)
			lane := exec.NewLane(r)
			qs := []record.Range{q, {Lo: q.Lo + 50_000, Hi: q.Hi}}
			encs := make([][]byte, len(qs))
			vts := make([]digest.Digest, len(qs))
			var sc BurstScratch
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range encs {
					encs[i] = encs[i][:0]
				}
				_, err := view.ServeBurst(lane.Contexts(len(qs)), qs, &sc, vts,
					func(qi int, enc []byte) error {
						encs[qi] = append(encs[qi], enc...)
						return nil
					})
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if _, err := vp.VerifyEncodedBurst(qs, encs, vts, nil); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				seen[r] = max(seen[r], len(encs[0])/record.Size)
			}
		}(r)
	}

	for i := 0; i < 40; i++ {
		keys := make([]record.Key, 3)
		for k := range keys {
			keys[k] = q.Lo + record.Key((i*3+k)*997%100_000)
		}
		ins, err := sys.InsertBatch(keys)
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		if err := sys.DeleteBatch(idsOf(ins[1:2])); err != nil {
			t.Fatalf("delete: %v", err)
		}
	}
	close(stop)
	readers.Wait()
	if slices.Max(seen) <= base {
		t.Fatalf("no reader saw an appended record (largest answer %d, base %d)", slices.Max(seen), base)
	}
}

// TestViewReadersRaceListPageWrites races verified bursts against inserts
// and deletes that rewrite the XB-Tree's list pages. The readers' ranges
// end on an internal entry's key, so every token descent folds that
// entry's list from its borrowed page; the writers add and remove tuples
// under the same key, rewriting that list's slot, growing it into a chain
// of pages and shrinking it back. Under -race, a fold that read a list
// page outside the TE's lock would be reported, and every burst's answer
// must verify against its token.
func TestViewReadersRaceListPageWrites(t *testing.T) {
	recs := durableDataset(t, 2000)
	sys, err := OpenDurableSystem(t.TempDir(), recs, 16)
	if err != nil {
		t.Fatalf("OpenDurableSystem: %v", err)
	}
	defer sys.Close()
	keys := make([]record.Key, len(recs))
	for i := range recs {
		keys[i] = recs[i].Key
	}
	slices.Sort(keys)
	k := internalKey(t, sys.TE, keys[len(keys)/2:])
	qs := []record.Range{{Lo: keys[100], Hi: k}, {Lo: k - 50_000, Hi: k}}
	if _, n := listReads(t, sys.TE, exec.NewLane(0), qs[0]); n < 1 {
		t.Fatalf("the readers' range reads %d list pages, want >= 1", n)
	}

	view := sys.View()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	bursts := make([]int, 3)
	for r := range bursts {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			vp := NewVerifyPool(1)
			lane := exec.NewLane(r)
			encs := make([][]byte, len(qs))
			vts := make([]digest.Digest, len(qs))
			var sc BurstScratch
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range encs {
					encs[i] = encs[i][:0]
				}
				_, err := view.ServeBurst(lane.Contexts(len(qs)), qs, &sc, vts,
					func(qi int, enc []byte) error {
						encs[qi] = append(encs[qi], enc...)
						return nil
					})
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if _, err := vp.VerifyEncodedBurst(qs, encs, vts, nil); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				bursts[r]++
			}
		}(r)
	}

	// Net three tuples a round under k: the list passes a slot's 146
	// tuples and becomes a chain, then the deletes shrink it back.
	var under []record.Record
	for i := 0; i < 60; i++ {
		ins, err := sys.InsertBatch([]record.Key{k, k, k, k, k - 1})
		if err != nil {
			t.Fatalf("insert: %v", err)
		}
		under = append(under, ins[:4]...)
		if err := sys.DeleteBatch(idsOf(ins[3:5])); err != nil {
			t.Fatalf("delete: %v", err)
		}
		under = under[:len(under)-1]
	}
	for len(under) > 100 {
		if err := sys.DeleteBatch(idsOf(under[len(under)-8:])); err != nil {
			t.Fatalf("delete: %v", err)
		}
		under = under[:len(under)-8]
	}
	close(stop)
	readers.Wait()
	for r, n := range bursts {
		if n == 0 {
			t.Fatalf("reader %d served no burst", r)
		}
	}
	if err := sys.TE.Validate(); err != nil {
		t.Fatalf("TE validation after list churn: %v", err)
	}
}

// TestAdmitDropsRefusedEffects: a submission refused after some of its
// ops were checked must leave nothing in the overlay its group-mates are
// admitted against. Here the refused one inserts id 5000 before its bad
// delete, and a later submission inserting 5000 must still be admitted.
func TestAdmitDropsRefusedEffects(t *testing.T) {
	sys, err := NewSystem(durableDataset(t, 100))
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	gc := newCommitterFor(t, sys, 0, false)
	subs := []submission{
		{ops: []wal.Op{wal.InsertOp(record.Synthesize(4000, 5))}},
		{ops: []wal.Op{wal.InsertOp(record.Synthesize(5000, 10)), wal.DeleteOp(987654321, 1)}},
		{ops: []wal.Op{wal.InsertOp(record.Synthesize(5000, 20))}},
		{ops: []wal.Op{wal.DeleteOp(4000, 5)}},
		{ops: []wal.Op{wal.DeleteOp(4000, 5)}},
	}
	gc.admit(subs) // the leader is idle: its overlay is free to use here
	for i, want := range []bool{false, true, false, false, true} {
		if got := subs[i].refused != nil; got != want {
			t.Errorf("submission %d: refused %v (%v), want refused %v", i, got, subs[i].refused, want)
		}
	}
}
