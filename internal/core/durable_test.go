package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sae/internal/record"
	"sae/internal/wal"
	"sae/internal/workload"
)

func durableDataset(t *testing.T, n int) []record.Record {
	t.Helper()
	ds, err := workload.Generate(workload.UNF, n, 42)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return ds.Records
}

func TestDurableSystemRecoversAckedState(t *testing.T) {
	dir := t.TempDir()
	recs := durableDataset(t, 1500)
	sys, err := OpenDurableSystem(dir, recs, 8)
	if err != nil {
		t.Fatalf("OpenDurableSystem: %v", err)
	}

	keys := make([]record.Key, 200)
	for i := range keys {
		keys[i] = record.Key((i * 31337) % record.KeyDomain)
	}
	ins, err := sys.InsertBatch(keys)
	if err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	if err := sys.DeleteBatch(idsOf(ins[:40])); err != nil {
		t.Fatalf("DeleteBatch: %v", err)
	}
	if err := sys.DeleteBatch([]record.ID{recs[3].ID, recs[77].ID}); err != nil {
		t.Fatalf("DeleteBatch originals: %v", err)
	}

	full := record.Range{Lo: 0, Hi: record.KeyDomain}
	before, err := sys.Query(full)
	if err != nil || before.VerifyErr != nil {
		t.Fatalf("pre-close query: %v / %v", err, before.VerifyErr)
	}
	wantCount := sys.Owner.Count()
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := OpenDurableSystem(dir, nil, 8)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if re.ReplayedGroups() == 0 {
		t.Fatalf("reopen replayed no WAL groups; durability untested")
	}
	if got := re.Owner.Count(); got != wantCount {
		t.Fatalf("recovered owner count %d, want %d", got, wantCount)
	}
	after, err := re.Query(full)
	if err != nil || after.VerifyErr != nil {
		t.Fatalf("post-recovery verified query: %v / %v", err, after.VerifyErr)
	}
	if len(after.Result) != len(before.Result) {
		t.Fatalf("recovered result size %d, want %d", len(after.Result), len(before.Result))
	}
	for i := range after.Result {
		if !after.Result[i].Equal(&before.Result[i]) {
			t.Fatalf("recovered record %d differs", i)
		}
	}
	if after.VT != before.VT {
		t.Fatalf("recovered VT differs from pre-crash VT")
	}

	// The recovered system accepts new updates and ids never collide.
	r, err := re.Insert(12345)
	if err != nil {
		t.Fatalf("post-recovery insert: %v", err)
	}
	for i := range ins {
		if ins[i].ID == r.ID {
			t.Fatalf("recovered system reused id %d", r.ID)
		}
	}
}

func TestDurableCheckpointResetsWAL(t *testing.T) {
	dir := t.TempDir()
	sys, err := OpenDurableSystem(dir, durableDataset(t, 800), 0)
	if err != nil {
		t.Fatalf("OpenDurableSystem: %v", err)
	}
	if _, err := sys.InsertBatch([]record.Key{5, 50, 500, 5000}); err != nil {
		t.Fatalf("InsertBatch: %v", err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	fi, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatalf("stat WAL: %v", err)
	}
	if fi.Size() != 0 {
		t.Fatalf("WAL holds %d bytes after checkpoint, want 0", fi.Size())
	}
	wantCount := sys.Owner.Count()
	sys.Close()

	re, err := OpenDurableSystem(dir, nil, 0)
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	defer re.Close()
	if re.ReplayedGroups() != 0 {
		t.Fatalf("replayed %d groups after checkpoint, want 0", re.ReplayedGroups())
	}
	if got := re.Owner.Count(); got != wantCount {
		t.Fatalf("post-checkpoint count %d, want %d", got, wantCount)
	}
	out, err := re.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("post-checkpoint verified query: %v / %v", err, out.VerifyErr)
	}
}

// TestCheckpointKeepsSubmittedGroup commits a group the way a wire primary
// and a reshard target do — SubmitOps of records the remote owner already
// synthesized — and checkpoints right after the ack. The group must be in
// the checkpoint by the time SubmitOps returns, or the WAL reset drops an
// acked group.
func TestCheckpointKeepsSubmittedGroup(t *testing.T) {
	dir := t.TempDir()
	sys, err := OpenDurableSystem(dir, durableDataset(t, 500), 0)
	if err != nil {
		t.Fatalf("OpenDurableSystem: %v", err)
	}
	ops := []wal.Op{
		wal.InsertOp(record.Synthesize(1_000_001, 777)),
		wal.InsertOp(record.Synthesize(1_000_002, 778)),
	}
	if err := sys.Committer().SubmitOps(ops); err != nil {
		t.Fatalf("SubmitOps: %v", err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := OpenDurableSystem(dir, nil, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := re.Owner.Count(); got != 502 {
		t.Fatalf("owner has %d records, want 502", got)
	}
	out, err := re.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("full-range verified query: %v / %v", err, out.VerifyErr)
	}
	if len(out.Result) != 502 {
		t.Fatalf("full-range query returned %d records, want 502", len(out.Result))
	}
}

// TestCheckpointUnderWrites checkpoints while four writers keep committing
// inserts of one: every insert acked before the writers stop must be in
// the reopened system, whichever side of a checkpoint its group landed on.
// A group dequeued, logged and acked between the checkpoint's dump and its
// WAL reset would be in neither file.
func TestCheckpointUnderWrites(t *testing.T) {
	const writers, checkpoints = 4, 5
	dir := t.TempDir()
	sys, err := OpenDurableSystem(dir, durableDataset(t, 500), 0)
	if err != nil {
		t.Fatalf("OpenDurableSystem: %v", err)
	}
	var (
		mu    sync.Mutex
		grew  = sync.NewCond(&mu) // broadcast on every ack and on a writer's error
		acked []record.ID
		werr  error
		wg    sync.WaitGroup
	)
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				recs, err := sys.InsertBatch([]record.Key{record.Key((w*1_000_003 + i*7919) % record.KeyDomain)})
				mu.Lock()
				if err != nil {
					werr = err
				} else {
					acked = append(acked, recs[0].ID)
				}
				grew.Broadcast()
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(w)
	}
	for i := 0; i < checkpoints; i++ {
		// Let the writers ack another hundred inserts first, so every
		// checkpoint lands in the middle of a stream of submissions.
		mu.Lock()
		for len(acked) < 100*(i+1) && werr == nil {
			grew.Wait()
		}
		mu.Unlock()
		if err := sys.Checkpoint(); err != nil {
			t.Errorf("Checkpoint %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if werr != nil {
		t.Fatalf("writer: %v", werr)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := OpenDurableSystem(dir, nil, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	out, err := re.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("full-range verified query: %v / %v", err, out.VerifyErr)
	}
	present := make(map[record.ID]bool, len(out.Result))
	for i := range out.Result {
		present[out.Result[i].ID] = true
	}
	lost := 0
	for _, id := range acked {
		if !present[id] {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acked inserts lost across %d checkpoints", lost, len(acked), checkpoints)
	}
}

// TestFreshIDsNotReissuedAfterRestart inserts a record, deletes it,
// checkpoints and reopens: the next insert must get an id above the
// deleted one. An owner that rebuilt its fresh-id watermark from the live
// records alone would issue the deleted record's id a second time.
func TestFreshIDsNotReissuedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	sys, err := OpenDurableSystem(dir, durableDataset(t, 200), 0)
	if err != nil {
		t.Fatalf("OpenDurableSystem: %v", err)
	}
	newest, err := sys.Insert(4242)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := sys.Delete(newest.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := sys.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := OpenDurableSystem(dir, nil, 0)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	r, err := re.Insert(4243)
	if err != nil {
		t.Fatalf("post-restart insert: %v", err)
	}
	if r.ID <= newest.ID {
		t.Fatalf("reopened owner issued id %d; id %d was issued before the restart", r.ID, newest.ID)
	}
}

// openCheckpoint opens a fresh directory whose records.dat holds b.
func openCheckpoint(t *testing.T, b []byte) error {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "records.dat"), b, 0o644); err != nil {
		t.Fatalf("writing checkpoint: %v", err)
	}
	re, err := OpenDurableSystem(dir, nil, 0)
	if err == nil {
		re.Close()
	}
	return err
}

// TestCorruptCheckpointCountRejected opens a checkpoint whose header
// claims far more records than the file holds: the open must fail with
// an error, not size an allocation from the header.
func TestCorruptCheckpointCountRejected(t *testing.T) {
	b := EncodeSnapshot(nil, Snapshot{Records: durableDataset(t, 10)})
	binary.BigEndian.PutUint64(b[snapshotHeaderSize-8:], 1<<40)
	if openCheckpoint(t, b) == nil {
		t.Fatal("opened a checkpoint whose count exceeds its length")
	}
}

// TestRestoreRejectsGarbage opens checkpoints that are not one — bad
// magic, the previous format's magic (its header has no fresh-id
// watermark), a header cut short, a record cut short: each open fails.
func TestRestoreRejectsGarbage(t *testing.T) {
	good := EncodeSnapshot(nil, Snapshot{Records: durableDataset(t, 3), Seq: 7, NextID: 9})
	for name, b := range map[string][]byte{
		"bad magic":        append([]byte("junkjunk"), good[len(checkpointMagic):]...),
		"older format":     append([]byte("SAECKP02"), good[len(checkpointMagic):]...),
		"truncated header": good[:len(checkpointMagic)+10],
		"truncated record": good[:len(good)-1],
	} {
		if openCheckpoint(t, b) == nil {
			t.Fatalf("%s: opened a corrupt checkpoint", name)
		}
	}
}

// FuzzDecodeSnapshot feeds arbitrary bytes to the checkpoint decoder: it
// must never panic, and any input it accepts must re-encode byte for byte.
func FuzzDecodeSnapshot(f *testing.F) {
	for _, n := range []int{0, 1, 3} {
		recs := make([]record.Record, n)
		for i := range recs {
			recs[i] = record.Synthesize(record.ID(i+1), record.Key(10*i))
		}
		// The watermark sits above every id in the dump, as after the
		// newest records were deleted.
		f.Add(EncodeSnapshot(nil, Snapshot{Records: recs, Seq: uint64(n), NextID: record.ID(n + 5)}))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		snap, err := DecodeSnapshot(b)
		if err != nil {
			return
		}
		if got := EncodeSnapshot(nil, snap); !bytes.Equal(got, b) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(b), len(got))
		}
	})
}

func TestDurableDeleteUnknownIDFailsCleanly(t *testing.T) {
	sys, err := OpenDurableSystem(t.TempDir(), durableDataset(t, 100), 0)
	if err != nil {
		t.Fatalf("OpenDurableSystem: %v", err)
	}
	defer sys.Close()
	if err := sys.Delete(999999999); err == nil {
		t.Fatalf("deleting an unknown id succeeded")
	}
	// System still works after the failed batch.
	if _, err := sys.Insert(1234); err != nil {
		t.Fatalf("insert after failed delete: %v", err)
	}
}
