package wire

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/record"
)

// TestRefusedBatchPoisonsNothing sends a primary three write batches its
// catalog must refuse — a delete of an unknown id, a live id deleted
// under the wrong key, an insert of a live id — in one commit group with
// a valid batch. Each bad batch must get its own error and the valid one
// must commit; nothing refused may reach the WAL, the parties or the
// replication feed. Afterwards a whole-domain verified read passes, a
// tailing replica matches without a snapshot reset, and the primary
// reopens from its WAL with the same records and token. The owner's own
// DeleteBatch of one id twice is refused the same way.
func TestRefusedBatchPoisonsNothing(t *testing.T) {
	sys, _, srv := startPrimary(t, 600)
	rep, _, err := BootstrapReplica(srv.Addr())
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	feed := StartReplicaFeed(rep, srv.Addr(), nil)
	defer feed.Close()

	snap := recordsOf(t, sys)
	live := snap[5]
	fresh := func(i int) record.Record {
		return record.Synthesize(record.ID(1<<40+i), record.Key(i*700_001%record.KeyDomain))
	}
	reqs := []Frame{
		{Type: MsgBatchDelete, Payload: EncodeDeletes([]record.ID{987654321}, []record.Key{1})},
		{Type: MsgBatchDelete, Payload: EncodeDeletes([]record.ID{live.ID}, []record.Key{live.Key + 1})},
		{Type: MsgBatchInsert, Payload: EncodeRecords([]record.Record{record.Synthesize(live.ID, 77)})},
		{Type: MsgBatchInsert, Payload: EncodeRecords([]record.Record{fresh(1), fresh(2)})},
	}
	const valid = 3 // reqs[valid] is the batch that must commit

	// A read view holds the commit lock. The plug batch goes first, alone;
	// once its group is in the WAL the leader waits at the lock, so the
	// four batches sent next all queue and form the next group together.
	walPath := filepath.Join(sys.Dir, "wal.log")
	walSize := func() int64 {
		fi, err := os.Stat(walPath)
		if err != nil {
			t.Errorf("stat WAL: %v", err)
			return 0
		}
		return fi.Size()
	}
	before := sys.Stats()
	logged := walSize()
	held, released := make(chan struct{}), make(chan error, 1)
	go func() {
		released <- sys.View()(func(uint64, *core.ServiceProvider, *core.TrustedEntity) error {
			close(held)
			for deadline := time.Now().Add(10 * time.Second); sys.Committer().Pending() < 1+1+1+1+2; {
				if time.Now().After(deadline) {
					t.Errorf("only %d ops reached the committer", sys.Committer().Pending())
					return nil
				}
				time.Sleep(time.Millisecond)
			}
			return nil
		})
	}()
	<-held
	wc, err := DialSP(srv.Addr())
	if err != nil {
		t.Fatalf("dialing primary for writes: %v", err)
	}
	defer wc.Close()
	plugDone := make(chan error, 1)
	go func() { plugDone <- wc.InsertBatch([]record.Record{fresh(0)}) }()
	for deadline := time.Now().Add(10 * time.Second); walSize() == logged; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the plug batch never reached the WAL")
		}
	}
	resps := pipeline(t, srv.Addr(), reqs, len(reqs))
	if err := <-released; err != nil {
		t.Fatal(err)
	}
	if err := <-plugDone; err != nil {
		t.Fatalf("plug batch: %v", err)
	}
	for i, resp := range resps {
		if i == valid {
			if resp.Type != MsgAck {
				t.Fatalf("valid batch: got %s %.120q", FrameName(resp.Type), resp.Payload)
			}
		} else if resp.Type != MsgErr {
			t.Fatalf("bad batch %d: got %s, want an error", i, FrameName(resp.Type))
		}
	}
	after := sys.Stats()
	if got := after.Groups - before.Groups; got != 2 {
		t.Fatalf("committed %d groups, want 2 (the plug's, then the valid batch's)", got)
	}
	if got := after.Ops - before.Ops; got != 3 {
		t.Fatalf("committed %d ops, want 3", got)
	}

	// The owner's own path: one id deleted twice in one batch.
	if err := sys.DeleteBatch([]record.ID{live.ID, live.ID}); err == nil || !strings.Contains(err.Error(), "not live") {
		t.Fatalf("DeleteBatch of one id twice: got %v", err)
	}

	vc, err := DialVerified(srv.Addr())
	if err != nil {
		t.Fatalf("dialing primary verified: %v", err)
	}
	defer vc.Close()
	full := record.Range{Lo: 0, Hi: record.KeyDomain}
	recs, _, err := vc.Query(full)
	if err != nil {
		t.Fatalf("whole-domain verified read: %v", err)
	}
	if want := len(snap) + 3; len(recs) != want {
		t.Fatalf("%d records served, want %d", len(recs), want)
	}

	type state struct {
		n   int
		vt  digest.Digest
		seq uint64
	}
	stateOf := func(name string, serve func(record.Range, func(*record.Record) error) (int, digest.Digest, uint64, error)) state {
		t.Helper()
		n, vt, seq, err := serve(full, func(*record.Record) error { return nil })
		if err != nil {
			t.Fatalf("%s whole-domain read: %v", name, err)
		}
		return state{n, vt, seq}
	}
	for deadline := time.Now().Add(5 * time.Second); rep.Seq() < sys.Seq(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at generation %d, primary at %d", rep.Seq(), sys.Seq())
		}
	}
	primary := stateOf("primary", sys.ServeVerified)
	if follower := stateOf("replica", rep.ServeVerified); follower != primary {
		t.Fatalf("replica %+v, primary %+v", follower, primary)
	}
	if n := feed.Resets(); n != 0 {
		t.Fatalf("the replica was reset from a snapshot %d times", n)
	}

	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re, err := core.OpenDurableSystem(sys.Dir, snap, 16)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.ReplayedGroups() != 2 {
		t.Fatalf("reopen replayed %d groups, want 2", re.ReplayedGroups())
	}
	if reopened := stateOf("reopened primary", re.ServeVerified); reopened != primary {
		t.Fatalf("reopened %+v, primary %+v", reopened, primary)
	}
}
