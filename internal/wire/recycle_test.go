package wire

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/wal"
)

// TestPageRecyclingRace races every reader of heap page bytes against a
// churn that frees heap pages and recycles them as tail pages: verified
// clients of the primary and of a tailing replica (the lane arena, over
// View.ServeBurst) and replica bootstraps from the primary's snapshot
// (WriteSnapshot). Each batch of 16 inserts 8 records and deletes the 8
// oldest, so the deletes empty whole pages in heap order. Under -race a
// reader that kept a borrowed page past its lock would be reported, and
// every answer must verify. Afterwards the primary's heap is flat, and
// the replica and a checkpoint-plus-WAL reopen match the primary record
// for record and token for token.
func TestPageRecyclingRace(t *testing.T) {
	sys, _, psrv := startPrimary(t, 2000)
	rep, si, err := BootstrapReplica(psrv.Addr())
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	rsrv, err := ServeReplica("127.0.0.1:0", rep, nil, WithShardInfo(si))
	if err != nil {
		t.Fatalf("serving replica: %v", err)
	}
	defer rsrv.Close()
	feed := StartReplicaFeed(rep, psrv.Addr(), nil)
	defer feed.Close()

	// The oldest records sit at the front of the heap in key order, so
	// the first range covers the pages the churn frees; the inserted keys
	// spread over the domain, so the second covers recycled tail pages.
	qs := []record.Range{{Lo: 0, Hi: 1_500_000}, {Lo: 5_000_000, Hi: 6_000_000}}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		readers.Wait()
	})
	defer stopReaders()
	answers := make([]atomic.Int64, 3) // per reader: two verified clients, the bootstraps
	for r, addr := range []string{psrv.Addr(), rsrv.Addr()} {
		vc, err := DialVerified(addr)
		if err != nil {
			t.Fatalf("dialing %s verified: %v", addr, err)
		}
		defer vc.Close()
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, q := range qs {
					if _, _, err := vc.Query(q); err != nil {
						t.Errorf("reader %d over %v: %v", r, q, err)
						return
					}
					answers[r].Add(1)
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			boot, _, err := BootstrapReplica(psrv.Addr())
			if err != nil {
				t.Errorf("bootstrapping from a snapshot taken under churn: %v", err)
				return
			}
			n, _, _, err := boot.ServeVerified(record.Range{Lo: 0, Hi: record.KeyDomain}, func(*record.Record) error { return nil })
			if err != nil || n != boot.Count() {
				t.Errorf("replica bootstrapped under churn serves %d of %d records: %v", n, boot.Count(), err)
				return
			}
			answers[2].Add(1)
		}
	}()

	queue := make([]wal.Op, 0, 2000+200*8)
	for _, r := range recordsOf(t, sys) {
		queue = append(queue, wal.DeleteOp(r.ID, r.Key))
	}
	nextID := record.ID(1 << 40)
	ops := make([]wal.Op, 0, 16)
	churnOne := func() {
		t.Helper()
		ops = ops[:0]
		for i := 0; i < 8; i++ {
			r := record.Synthesize(nextID, record.Key(uint64(nextID)*7919%record.KeyDomain))
			nextID++
			ops = append(ops, wal.InsertOp(r))
			queue = append(queue, wal.DeleteOp(r.ID, r.Key))
		}
		ops = append(ops, queue[:8]...)
		queue = queue[8:]
		if err := sys.Committer().SubmitOps(ops); err != nil {
			t.Fatalf("churn batch: %v", err)
		}
	}
	// At least 150 batches, and on until every reader has answered under
	// the churn.
	unanswered := func() bool {
		for i := range answers {
			if answers[i].Load() == 0 {
				return true
			}
		}
		return false
	}
	for b, deadline := 0, time.Now().Add(30*time.Second); b < 150 || unanswered(); b++ {
		if time.Now().After(deadline) {
			t.Fatal("a reader got no answer while the churn ran")
		}
		churnOne()
	}
	stopReaders()
	if t.Failed() {
		return
	}
	flat := func(name string, sp *core.ServiceProvider) {
		t.Helper()
		if got, bound := sp.HeapBytes(), int64((sp.Count()+7)/8+1)*pagestore.PageSize; got > bound {
			t.Fatalf("%s heap holds %d bytes for %d live records, want <= %d", name, got, sp.Count(), bound)
		}
	}
	flat("primary", sys.SP)

	// Record for record and token for token, at one generation stamp.
	type state struct {
		recs []byte
		vts  []digest.Digest
		seq  uint64
	}
	stateOf := func(name string, serve func(record.Range, func(*record.Record) error) (int, digest.Digest, uint64, error)) state {
		t.Helper()
		var s state
		for _, q := range append(qs, record.Range{Lo: 0, Hi: record.KeyDomain}) {
			_, vt, seq, err := serve(q, func(r *record.Record) error {
				s.recs = r.AppendBinary(s.recs)
				return nil
			})
			if err != nil {
				t.Fatalf("%s over %v: %v", name, q, err)
			}
			s.vts, s.seq = append(s.vts, vt), seq
		}
		return s
	}
	same := func(name string, got, want state) {
		t.Helper()
		if got.seq != want.seq || !bytes.Equal(got.recs, want.recs) || !slices.Equal(got.vts, want.vts) {
			t.Fatalf("%s at generation %d (%d record bytes) differs from the primary at %d (%d record bytes)",
				name, got.seq, len(got.recs), want.seq, len(want.recs))
		}
	}
	caughtUp := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); rep.Seq() < sys.Seq(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("replica stuck at generation %d, primary at %d", rep.Seq(), sys.Seq())
			}
		}
	}
	caughtUp()
	primary := stateOf("primary", sys.ServeVerified)
	same("replica", stateOf("replica", rep.ServeVerified), primary)
	flat("replica", rep.SP())

	// The reopen loads the checkpoint's key-ordered dump, then replays
	// the churn logged after it.
	if err := sys.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for b := 0; b < 20; b++ {
		churnOne()
	}
	caughtUp()
	primary = stateOf("primary", sys.ServeVerified)
	same("replica", stateOf("replica", rep.ServeVerified), primary)
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := core.OpenDurableSystem(sys.Dir, nil, 16)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	same("reopened primary", stateOf("reopened primary", re.ServeVerified), primary)
	if n := feed.Resets(); n != 0 {
		t.Fatalf("the tailing replica was reset from a snapshot %d times", n)
	}
}
