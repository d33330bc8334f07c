package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/record"
	"sae/internal/wal"
)

// DurableSystem is a crash-safe SAE deployment rooted in one directory:
//
//	records.dat — the last checkpoint, a flat dump of the record set
//	wal.log     — every commit group since that checkpoint
//
// Updates flow through a GroupCommitter whose WAL append+fsync precedes
// the ack, so after a crash — even kill -9 mid-group — reopening the
// directory reconstructs exactly the acked state: the checkpoint is
// bulk-loaded and the WAL's committed groups are re-applied through the
// same ApplyGroup body that ran before the crash. Torn trailing groups
// (writes that never acked) are discarded by the WAL replay, so no
// unacked update becomes partially visible. VTs come out identical
// because the XOR fold is order-independent and tree contents are
// determined by the record set.
//
// The parties run on in-memory page stores rebuilt at open; durability
// lives entirely in the checkpoint + WAL pair, which keeps recovery a
// sequential read instead of a page-by-page fsck.
type DurableSystem struct {
	Dir    string
	Owner  *DataOwner
	SP     *ServiceProvider
	TE     *TrustedEntity
	Client Client

	committer *GroupCommitter
	replayed  int // committed WAL groups re-applied at open (tests, tooling)
}

const checkpointMagic = "SAECKP03"

func checkpointPath(dir string) string { return filepath.Join(dir, "records.dat") }
func walPath(dir string) string        { return filepath.Join(dir, "wal.log") }

// Snapshot is a record dump cut at one commit boundary: the bytes of a
// checkpoint file and of the snapshot that bootstraps a replica.
type Snapshot struct {
	Records []record.Record
	// Seq is the commit sequence folded into the dump; replay skips WAL
	// groups at or below it, which makes a crash between checkpoint
	// publish and WAL reset safe (the groups still in the log would
	// otherwise double-apply).
	Seq uint64
	// NextID is the owner's fresh-id watermark. It can sit above every
	// record in the dump (the newest ones may have been deleted), and a
	// rebuilt owner must not issue those ids again.
	NextID record.ID
}

// writeCheckpoint dumps snap to the directory atomically: write to a
// temp file, fsync, rename, fsync the directory.
func writeCheckpoint(dir string, snap Snapshot) error {
	tmp := checkpointPath(dir) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: creating checkpoint: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if _, err := bw.Write(appendSnapshotHeader(nil, snap)); err != nil {
		f.Close()
		return err
	}
	scratch := make([]byte, 0, record.Size)
	for i := range snap.Records {
		if _, err := bw.Write(snap.Records[i].AppendBinary(scratch)); err != nil {
			f.Close()
			return fmt.Errorf("core: writing checkpoint: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("core: flushing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("core: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, checkpointPath(dir)); err != nil {
		return fmt.Errorf("core: publishing checkpoint: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// readCheckpoint loads the snapshot in dir; a missing file is an empty
// snapshot at sequence zero. The bytes are parsed by DecodeSnapshot, the
// same parser a replica runs on a snapshot sent over the wire.
func readCheckpoint(dir string) (Snapshot, error) {
	b, err := os.ReadFile(checkpointPath(dir))
	if os.IsNotExist(err) {
		return Snapshot{}, nil
	}
	if err != nil {
		return Snapshot{}, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	return DecodeSnapshot(b)
}

// OpenDurableSystem opens (or initializes) a durable deployment in dir.
// When the directory is fresh, initial seeds the dataset and becomes the
// first checkpoint; on reopen, initial is ignored and the state is
// rebuilt from the checkpoint plus the WAL's committed groups.
// maxGroup <= 0 selects DefaultMaxGroup.
func OpenDurableSystem(dir string, initial []record.Record, maxGroup int) (*DurableSystem, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating durable dir: %w", err)
	}
	ckpt, err := readCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	fresh := ckpt.Records == nil && !fileExists(walPath(dir))
	if fresh {
		ckpt.Records = append([]record.Record(nil), initial...)
	}
	sys, err := Rebuild(ckpt.Records, ckpt.NextID)
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding from checkpoint: %w", err)
	}
	if fresh {
		ckpt.NextID = sys.Owner.watermark()
		if err := writeCheckpoint(dir, ckpt); err != nil {
			return nil, err
		}
	}
	log, groups, err := wal.Open(walPath(dir))
	if err != nil {
		return nil, fmt.Errorf("core: opening WAL: %w", err)
	}

	// Re-apply every committed group through the very group body that ran
	// before the crash; anything the WAL did not mark committed was never
	// acked and is discarded by the replay. Groups at or below the
	// checkpoint's sequence are already folded into the dump — a crash
	// between checkpoint publish and WAL reset leaves them in the log, and
	// re-applying them would double-insert.
	ctx := exec.NewContext()
	maxSeq := ckpt.Seq
	replayed := 0
	for _, g := range groups {
		if g.Seq <= ckpt.Seq {
			continue
		}
		replayed++
		if err := ApplyGroup(ctx, sys.Owner, sys.SP, sys.TE, g.Ops); err != nil {
			log.Close()
			return nil, fmt.Errorf("core: replaying group %d: %w", g.Seq, err)
		}
		maxSeq = max(maxSeq, g.Seq)
	}

	ds := &DurableSystem{
		Dir:      dir,
		Owner:    sys.Owner,
		SP:       sys.SP,
		TE:       sys.TE,
		replayed: replayed,
	}
	ds.committer = NewGroupCommitter(sys.Owner, sys.SP, sys.TE, log, maxGroup)
	ds.committer.mu.Lock()
	ds.committer.seq = maxSeq
	ds.committer.mu.Unlock()
	ds.committer.commitMu.Lock()
	ds.committer.applied = maxSeq
	ds.committer.commitMu.Unlock()
	return ds, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// EncodeSnapshot appends snap in the checkpoint's own byte format
// (header, packed records) to buf. A replica bootstrapping over the wire
// parses exactly the bytes a DurableSystem checkpoint file holds.
func EncodeSnapshot(buf []byte, snap Snapshot) []byte {
	buf = appendSnapshotHeader(buf, snap)
	for i := range snap.Records {
		buf = snap.Records[i].AppendBinary(buf)
	}
	return buf
}

// snapshotHeaderSize is the header a checkpoint file and a wire snapshot
// share: magic, sequence, fresh-id watermark, record count.
const snapshotHeaderSize = len(checkpointMagic) + 24

func appendSnapshotHeader(buf []byte, snap Snapshot) []byte {
	buf = append(buf, checkpointMagic...)
	buf = binary.BigEndian.AppendUint64(buf, snap.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(snap.NextID))
	return binary.BigEndian.AppendUint64(buf, uint64(len(snap.Records)))
}

// DecodeSnapshot parses an EncodeSnapshot payload — or a checkpoint
// file's bytes — back into a Snapshot, rejecting any count its length
// does not carry. A file written under an older magic is rejected by
// name: its header has no watermark to rebuild the owner from.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	if len(b) < snapshotHeaderSize {
		return Snapshot{}, fmt.Errorf("core: snapshot of %d bytes is truncated", len(b))
	}
	if magic := string(b[:len(checkpointMagic)]); magic != checkpointMagic {
		return Snapshot{}, fmt.Errorf("core: snapshot magic %q, want %q (older formats are not readable)", magic, checkpointMagic)
	}
	b = b[len(checkpointMagic):]
	snap := Snapshot{
		Seq:    binary.BigEndian.Uint64(b[0:8]),
		NextID: record.ID(binary.BigEndian.Uint64(b[8:16])),
	}
	n := binary.BigEndian.Uint64(b[16:24])
	b = b[24:]
	if n > uint64(len(b))/record.Size || uint64(len(b)) != n*record.Size {
		return Snapshot{}, fmt.Errorf("core: snapshot claims %d records but carries %d bytes", n, len(b))
	}
	snap.Records = make([]record.Record, n)
	for i := range snap.Records {
		r, err := record.Unmarshal(b[:record.Size])
		if err != nil {
			return Snapshot{}, fmt.Errorf("core: decoding snapshot record %d: %w", i, err)
		}
		snap.Records[i] = r
		b = b[record.Size:]
	}
	return snap, nil
}

// Committer exposes the system's group committer (benchmarks, wire
// servers).
func (ds *DurableSystem) Committer() *GroupCommitter { return ds.committer }

// ReplayedGroups returns how many committed WAL groups the open
// re-applied (zero on a clean start).
func (ds *DurableSystem) ReplayedGroups() int { return ds.replayed }

// Insert commits one insert through the group pipeline.
func (ds *DurableSystem) Insert(key record.Key) (record.Record, error) {
	return ds.committer.Insert(key)
}

// InsertBatch commits a batch of inserts as one group.
func (ds *DurableSystem) InsertBatch(keys []record.Key) ([]record.Record, error) {
	return ds.committer.InsertBatch(keys)
}

// Delete commits one delete through the group pipeline.
func (ds *DurableSystem) Delete(id record.ID) error {
	return ds.committer.Delete(id)
}

// DeleteBatch commits a batch of deletes as one group.
func (ds *DurableSystem) DeleteBatch(ids []record.ID) error {
	return ds.committer.DeleteBatch(ids)
}

// Query runs a verified range query against the live state.
func (ds *DurableSystem) Query(q record.Range) (QueryOutcome, error) {
	var out QueryOutcome
	recs, qc, err := ds.SP.Query(q)
	if err != nil {
		return out, err
	}
	vt, teCost, err := ds.TE.GenerateVT(q)
	if err != nil {
		return out, err
	}
	verifyCost, verifyErr := ds.Client.Verify(q, recs, vt)
	out.Result = recs
	out.VT = vt
	out.SPCost = qc
	out.TECost = teCost
	out.ClientCost = verifyCost
	out.VerifyErr = verifyErr
	return out, nil
}

// Seq returns the system's generation stamp: the sequence of the last
// commit group visible in both parties.
func (ds *DurableSystem) Seq() uint64 { return ds.committer.AppliedSeq() }

// View is the system's read view: f runs with the commit lock held
// shared, over the live SP and TE at the generation stamp it is handed.
// This is the primary's half of the replica-set contract (a replica
// offers the same view over its own pair).
func (ds *DurableSystem) View() View {
	return func(f func(uint64, *ServiceProvider, *TrustedEntity) error) error {
		return ds.committer.ReadView(func(seq uint64) error { return f(seq, ds.SP, ds.TE) })
	}
}

// ServeVerified answers one range query atomically at a single commit
// boundary; see View.ServeVerified.
func (ds *DurableSystem) ServeVerified(q record.Range, emit func(*record.Record) error) (n int, vt digest.Digest, seq uint64, err error) {
	return ds.View().ServeVerified(q, emit)
}

// SnapshotRecords returns the full record set in key order together with
// the generation stamp it belongs to, read under the commit lock so no
// group can slip in between the scan and the stamp, and the owner's
// fresh-id watermark. Checkpoint writes it to records.dat, and
// EncodeSnapshot of it — the same bytes — is what bootstraps a replica.
func (ds *DurableSystem) SnapshotRecords() (Snapshot, error) {
	var snap Snapshot
	err := ds.committer.ReadView(func(s uint64) error {
		snap.Seq = s
		var qErr error
		snap.Records, _, qErr = ds.SP.QueryCtx(exec.NewContext(), record.Range{Lo: 0, Hi: record.KeyDomain})
		return qErr
	})
	snap.NextID = ds.Owner.watermark()
	return snap, err
}

// Checkpoint publishes the applied state as the new checkpoint and
// truncates the WAL. It holds the committer's queue lock from the moment
// no group is queued or in flight until the log has reset, so no group
// can be logged and acked between the dump and the reset: submitters wait
// for the checkpoint instead. The dump is SnapshotRecords — what the SP
// serves at the applied sequence, not the owner's map, which registers
// inserts before they commit. The checkpoint is published (rename + dir
// sync) before the log resets, so a crash in between loses nothing.
func (ds *DurableSystem) Checkpoint() error {
	gc := ds.committer
	gc.mu.Lock()
	defer gc.mu.Unlock()
	for len(gc.queue) > 0 || gc.inflight {
		gc.cond.Wait()
	}
	snap, err := ds.SnapshotRecords()
	if err != nil {
		return fmt.Errorf("core: reading checkpoint state: %w", err)
	}
	if err := writeCheckpoint(ds.Dir, snap); err != nil {
		return err
	}
	if err := gc.log.Reset(); err != nil {
		return fmt.Errorf("core: resetting WAL after checkpoint: %w", err)
	}
	return nil
}

// Stats returns the committer's counters.
func (ds *DurableSystem) Stats() CommitStats { return ds.committer.Stats() }

// Close drains pending updates and closes the WAL. The directory remains
// openable.
func (ds *DurableSystem) Close() error {
	return ds.committer.Close()
}
