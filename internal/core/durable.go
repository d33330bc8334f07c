package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/record"
	"sae/internal/wal"
)

// DurableSystem is a crash-safe SAE deployment rooted in one directory:
//
//	records.dat — the last checkpoint, a flat dump of the record set;
//	              only Checkpoint writes it
//	base        — until the first checkpoint: the record count and
//	              fingerprint of the owner's base dataset, which the caller
//	              supplies again at every open
//	wal.log     — every commit group since that checkpoint or base
//
// Updates flow through a GroupCommitter whose WAL append+fsync precedes
// the ack, so after a crash — even kill -9 mid-group — reopening the
// directory reconstructs exactly the acked state: the checkpoint (or the
// caller's base dataset, checked against the base record) is
// bulk-loaded and the WAL's committed groups are re-applied through the
// same ApplyGroup body that ran before the crash. Torn trailing groups
// (writes that never acked) are discarded by the WAL replay, so no
// unacked update becomes partially visible. VTs come out identical
// because the XOR fold is order-independent and tree contents are
// determined by the record set.
//
// The parties run on in-memory page stores rebuilt at open; durability
// lives entirely in the checkpoint (or base) + WAL pair, which keeps
// recovery a sequential read instead of a page-by-page fsck.
type DurableSystem struct {
	Dir    string
	Owner  *DataOwner
	SP     *ServiceProvider
	TE     *TrustedEntity
	Client Client

	committer *GroupCommitter
	replayed  int // committed WAL groups re-applied at open (tests, tooling)
}

const (
	checkpointMagic = "SAECKP03"
	baseMagic       = "SAEBASE1"
)

func checkpointPath(dir string) string { return filepath.Join(dir, "records.dat") }
func basePath(dir string) string       { return filepath.Join(dir, "base") }
func walPath(dir string) string        { return filepath.Join(dir, "wal.log") }

// publish writes the file at path atomically: fill writes its bytes to
// a temp file beside path, which is fsynced, renamed over path, and the
// directory fsynced. On failure the temp file is removed. The checkpoint
// and the base record are both published through it.
func publish(path string, fill func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: creating %s: %w", tmp, err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: publishing %s: %w", path, err)
	}
	d, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("core: syncing the rename of %s: %w", path, err)
	}
	return nil
}

// loadBase rebuilds the parties of a directory that holds no checkpoint
// from the caller's base dataset: the canonical encodings of n records in
// key order, streamed by src. A fresh directory publishes the base record
// (magic, count, fingerprint) before anything else; a directory that
// already holds one accepts only the dataset it records. The fingerprint
// is the TE's whole-domain token, the XOR of the n record digests. A WAL
// beside neither a checkpoint nor a base record is refused: its groups
// are updates to a state the directory no longer holds.
func loadBase(dir string, n int, src io.Reader) (*System, error) {
	b, err := os.ReadFile(basePath(dir))
	fresh := os.IsNotExist(err)
	switch {
	case fresh:
		if _, err := os.Stat(walPath(dir)); err == nil {
			return nil, fmt.Errorf("core: %s holds a WAL but neither a checkpoint nor a base record", dir)
		}
	case err != nil:
		return nil, fmt.Errorf("core: reading base record: %w", err)
	case len(b) != len(baseMagic)+8+digest.Size || string(b[:len(baseMagic)]) != baseMagic:
		return nil, fmt.Errorf("core: %s: base record of %d bytes is not a %s record", dir, len(b), baseMagic)
	case binary.BigEndian.Uint64(b[8:]) != uint64(n):
		return nil, fmt.Errorf("core: %s holds a base of %d records with fingerprint %x; the dataset given has %d records", dir, binary.BigEndian.Uint64(b[8:]), b[16:], n)
	}
	sys, err := rebuildFrom(n, src, 0)
	if err != nil {
		return nil, err
	}
	fp, _, err := sys.TE.GenerateVTCtx(exec.NewContext(), record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil {
		return nil, err
	}
	rec := append(binary.BigEndian.AppendUint64([]byte(baseMagic), uint64(n)), fp[:]...)
	switch {
	case fresh:
		err = publish(basePath(dir), func(w io.Writer) error { _, err := w.Write(rec); return err })
	case !bytes.Equal(rec, b):
		err = fmt.Errorf("core: %s holds a base with fingerprint %x; the dataset given has fingerprint %v", dir, b[16:], fp)
	}
	if err != nil {
		return nil, err
	}
	return sys, nil
}

// OpenDurableSystem opens (or initializes) a durable deployment in dir
// over the base dataset initial (in any order): OpenDurableFrom over the
// records' encodings, each encoded once.
func OpenDurableSystem(dir string, initial []record.Record, maxGroup int) (*DurableSystem, error) {
	initial = sortedByKeyID(initial)
	return OpenDurableFrom(dir, len(initial), record.ReaderOf(initial), maxGroup)
}

// OpenDurableFrom opens (or initializes) a durable deployment in dir,
// whose base dataset is the canonical encodings of n records in key
// order, streamed by src. The state is rebuilt from, in order of
// precedence:
//
//	records.dat — the last checkpoint; n and src are ignored
//	base        — no checkpoint yet: src is loaded, and must be the
//	              dataset the base record names (count and fingerprint)
//	neither     — a fresh directory: src is loaded and its base record
//	              published, before wal.log is created
//
// and then wal.log's committed groups past it are re-applied. A WAL with
// neither file is an error. maxGroup <= 0 selects DefaultMaxGroup.
func OpenDurableFrom(dir string, n int, src io.Reader, maxGroup int) (*DurableSystem, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating durable dir: %w", err)
	}
	var sys *System
	var ckptSeq uint64
	f, err := os.Open(checkpointPath(dir))
	switch {
	case err == nil:
		var st os.FileInfo
		if st, err = f.Stat(); err == nil {
			sys, ckptSeq, err = LoadSnapshot(bufio.NewReaderSize(f, 1<<16), st.Size())
		}
		f.Close()
	case os.IsNotExist(err):
		sys, err = loadBase(dir, n, src)
	default:
		err = fmt.Errorf("core: reading checkpoint: %w", err)
	}
	if err != nil {
		return nil, err
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
	maxSeq := ckptSeq
	replayed := 0
	for _, g := range groups {
		if g.Seq <= ckptSeq {
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
	// Nothing can submit before ds is returned, so the leader and every
	// read view see these two stamps set.
	ds.committer = NewGroupCommitter(sys.Owner, sys.SP, sys.TE, log, maxGroup)
	ds.committer.seq, ds.committer.applied = maxSeq, maxSeq
	return ds, nil
}

// snapshotHeaderSize is the header a checkpoint file and a wire snapshot
// share: magic, sequence, fresh-id watermark, record count.
const snapshotHeaderSize = len(checkpointMagic) + 24

func appendSnapshotHeader(buf []byte, seq uint64, nextID record.ID, n int) []byte {
	buf = append(buf, checkpointMagic...)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(nextID))
	return binary.BigEndian.AppendUint64(buf, uint64(n))
}

// parseSnapshotHeader parses a snapshot header followed by size bytes,
// rejecting any count those bytes do not carry. A header written under
// an older magic is rejected by name: it has no watermark to rebuild the
// owner from.
func parseSnapshotHeader(b []byte, size int64) (seq uint64, nextID record.ID, n int, err error) {
	if len(b) < snapshotHeaderSize {
		return 0, 0, 0, fmt.Errorf("core: snapshot of %d bytes is truncated", len(b))
	}
	if magic := string(b[:len(checkpointMagic)]); magic != checkpointMagic {
		return 0, 0, 0, fmt.Errorf("core: snapshot magic %q, want %q (older formats are not readable)", magic, checkpointMagic)
	}
	count := binary.BigEndian.Uint64(b[24:32]) // after the magic, the sequence and the watermark
	if count > uint64(size)/record.Size || uint64(size) != count*record.Size {
		return 0, 0, 0, fmt.Errorf("core: snapshot claims %d records but carries %d bytes", count, size)
	}
	return binary.BigEndian.Uint64(b[8:16]), record.ID(binary.BigEndian.Uint64(b[16:24])), int(count), nil
}

// LoadSnapshot rebuilds the parties from a snapshot of size bytes read
// from r — WriteSnapshot's bytes, or a checkpoint file's — streaming its
// records straight into the SP's heap slots, and returns them with the
// snapshot's sequence. The owner issues fresh ids from the header's
// watermark or past the largest id loaded, whichever is higher. Every
// snapshot is loaded through it: a checkpoint reopen, a replica's
// bootstrap and reset.
func LoadSnapshot(r io.Reader, size int64) (*System, uint64, error) {
	var hdr [snapshotHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("core: snapshot of %d bytes is truncated", size)
	}
	seq, nextID, n, err := parseSnapshotHeader(hdr[:], size-int64(snapshotHeaderSize))
	if err != nil {
		return nil, 0, err
	}
	sys, err := rebuildFrom(n, r, nextID)
	if err != nil {
		return nil, 0, fmt.Errorf("core: rebuilding from snapshot: %w", err)
	}
	return sys, seq, nil
}

// SnapshotRecords returns an in-memory snapshot's sequence and its record
// section, the canonical encodings of its records in key order, after the
// header checks LoadSnapshot makes. A reshard target loads its span of
// the section through OpenDurableFrom.
func SnapshotRecords(b []byte) (seq uint64, recs []byte, err error) {
	seq, _, _, err = parseSnapshotHeader(b, int64(len(b))-int64(snapshotHeaderSize))
	if err != nil {
		return 0, nil, err
	}
	return seq, b[snapshotHeaderSize:], nil
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

// Query runs a verified range query against the live state: System.Query
// over the system's own parties.
func (ds *DurableSystem) Query(q record.Range) (QueryOutcome, error) {
	out, err := (&System{SP: ds.SP, TE: ds.TE}).Query(q)
	if err != nil {
		return QueryOutcome{}, err
	}
	return *out, nil
}

// Seq returns the system's generation stamp: the sequence of the last
// commit group visible in both parties.
func (ds *DurableSystem) Seq() uint64 { return ds.committer.AppliedSeq() }

// View is the system's read view: f runs with the commit lock held
// shared, over the live SP and TE at the generation stamp it is handed.
// No group can apply while f runs, so one response can carry records, a
// verification token and a stamp that agree even under a concurrent
// write burst. This is the primary's half of the replica-set contract (a
// replica offers the same view over its own pair).
func (ds *DurableSystem) View() View {
	gc := ds.committer
	return func(f func(uint64, *ServiceProvider, *TrustedEntity) error) error {
		gc.commitMu.RLock()
		defer gc.commitMu.RUnlock()
		return f(gc.applied, ds.SP, ds.TE)
	}
}

// ServeVerified answers one range query atomically at a single commit
// boundary; see View.ServeVerified.
func (ds *DurableSystem) ServeVerified(q record.Range, emit func(*record.Record) error) (n int, vt digest.Digest, seq uint64, err error) {
	return ds.View().ServeVerified(q, emit)
}

// WriteSnapshot writes the applied state to w in the checkpoint's byte
// format: the header (sequence, the owner's fresh-id watermark, record
// count), then every live record's encoding in key order. The SP serves
// the whole domain from its page bytes through one View, so the records,
// the stamp and the watermark belong to one commit boundary. Checkpoint
// writes these bytes to records.dat, and a replica bootstraps from them.
func (ds *DurableSystem) WriteSnapshot(w io.Writer) error {
	return ds.View()(func(seq uint64, sp *ServiceProvider, _ *TrustedEntity) error {
		n := sp.Count()
		if _, err := w.Write(appendSnapshotHeader(nil, seq, ds.Owner.watermark(), n)); err != nil {
			return fmt.Errorf("core: writing snapshot: %w", err)
		}
		served := 0
		err := sp.ServeBurstCtx([]*exec.Context{exec.NewContext()}, []record.Range{{Lo: 0, Hi: record.KeyDomain}}, new(BurstScratch),
			func(_ int, enc []byte) error {
				served += len(enc) / record.Size
				_, err := w.Write(enc)
				return err
			})
		if err == nil && served != n {
			err = fmt.Errorf("core: snapshot served %d records; the catalog holds %d", served, n)
		}
		return err
	})
}

// Checkpoint publishes the applied state as the new checkpoint and
// truncates the WAL. It holds the committer's queue lock from the moment
// no group is queued or in flight until the log has reset, so no group
// can be logged and acked between the dump and the reset: submitters wait
// for the checkpoint instead. The dump is WriteSnapshot — what the SP
// serves at the applied sequence. The checkpoint is published (rename +
// dir sync) before the log resets, so a crash in between loses nothing.
// Once it is, the base record is removed: records.dat takes precedence
// over it at every later open.
func (ds *DurableSystem) Checkpoint() error {
	gc := ds.committer
	gc.mu.Lock()
	defer gc.mu.Unlock()
	for len(gc.queue) > 0 || gc.inflight {
		gc.cond.Wait()
	}
	if err := publish(checkpointPath(ds.Dir), ds.WriteSnapshot); err != nil {
		return err
	}
	if err := gc.log.Reset(); err != nil {
		return fmt.Errorf("core: resetting WAL after checkpoint: %w", err)
	}
	if err := os.Remove(basePath(ds.Dir)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("core: removing the base record after checkpoint: %w", err)
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
