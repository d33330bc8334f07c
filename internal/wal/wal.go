// Package wal implements the per-shard write-ahead log behind the
// group-commit write pipeline. Updates are appended as framed op records
// followed by a group commit marker, with one fsync per group — the
// durability point every waiter in the group is acked against. Replay
// after a crash yields exactly the fully committed groups, in order; a
// torn tail (ops without their commit marker, or a half-written frame) is
// discarded and truncated, so an unacked group is never partially
// visible.
//
// Format, one frame per op:
//
//	[kind 1][len 4][payload len][crc32 4]
//
// where crc32 covers kind plus payload (IEEE). An insert's payload is the
// canonical 500-byte record encoding; a delete's is id (8) + key (4). A
// group ends with a commit frame whose payload is seq (8) + op count (4);
// the count must match the ops since the previous commit, or the tail is
// treated as torn. The format is append-only and self-delimiting, so a
// crash can only ever damage the tail.
//
// It is also the replication wire form: EncodeGroup and DecodeGroups are
// a group's only encoder and decoder, and the hub retains, and a replica
// pull ships, a group's frames exactly as the log holds them. The CRC
// guards against accidental corruption, on disk or in transit; it is no
// defence against a primary that lies, which can write a good CRC over
// any record.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"sae/internal/record"
)

// OpKind discriminates logged operations.
type OpKind byte

// Logged operation kinds. kindCommit is internal framing, not an op.
const (
	OpInsert OpKind = 1
	OpDelete OpKind = 2

	kindCommit OpKind = 0xC0
)

// Op is one logged update. Inserts carry the full record (the canonical
// encoding is what both the SP and TE apply); deletes carry id + key.
type Op struct {
	Kind OpKind
	Rec  record.Record // OpInsert
	ID   record.ID     // OpDelete
	Key  record.Key    // OpDelete
}

// InsertOp builds an insert op for r.
func InsertOp(r record.Record) Op { return Op{Kind: OpInsert, Rec: r} }

// DeleteOp builds a delete op for id/key.
func DeleteOp(id record.ID, key record.Key) Op {
	return Op{Kind: OpDelete, ID: id, Key: key}
}

// SearchKey returns the key the op's record is indexed under — the key a
// sharded deployment routes the op by.
func (op *Op) SearchKey() record.Key {
	if op.Kind == OpInsert {
		return op.Rec.Key
	}
	return op.Key
}

// Group is one committed group as recovered by Open.
type Group struct {
	Seq uint64
	Ops []Op
}

// frameHeaderSize is kind (1) + payload length (4).
const frameHeaderSize = 5

// Payload sizes of a delete, id (8) + key (4), and of a commit marker,
// seq (8) + count (4).
const (
	deletePayloadSize = 12
	commitPayloadSize = 12
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Log is an append-only write-ahead log. It is safe for concurrent use,
// though the committer design funnels all appends through one goroutine.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	size   int64
	closed bool
	syncs  int64  // fsyncs issued (the quantity group commit amortizes)
	groups int64  // groups appended since open
	buf    []byte // the encode buffer Append reuses, under mu
}

// bufRetain caps the encode buffer a Log keeps between groups: a group
// of DefaultMaxGroup inserts (core) is about 64 KiB, and a rare larger
// one (a replayed or resharded batch) should not pin its buffer.
const bufRetain = 256 << 10

// Create creates (truncating) a fresh log at path.
func Create(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", path, err)
	}
	return &Log{f: f}, nil
}

// Open opens an existing log (creating an empty one if absent), replays
// it, and returns the fully committed groups in append order. Any torn
// tail — a half-written frame, a CRC mismatch, or ops not followed by
// their commit marker — is discarded and truncated away, so subsequent
// appends extend a clean log.
func Open(path string) (*Log, []Group, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	groups, good, err := replay(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
	}
	return &Log{f: f, size: good}, groups, nil
}

// replay reads the whole log and decodes it. Frame-level damage simply
// ends the decode: the format is append-only, so damage can only be at
// the tail.
func replay(f *os.File) ([]Group, int64, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("wal: stat: %w", err)
	}
	data := make([]byte, info.Size())
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, info.Size()), data); err != nil {
		return nil, 0, fmt.Errorf("wal: reading log: %w", err)
	}
	groups, good := DecodeGroups(data)
	return groups, int64(good), nil
}

// DecodeGroups is the one decoder of commit groups: it decodes the groups
// framed from the start of b, in order, and returns them with n, the end
// of the last good commit marker. It stops at the first frame that is
// torn, fails its CRC or its kind's length, and at a commit marker whose
// op count disagrees with the ops before it: nothing at or past such a
// frame is decoded, and ops after the last marker are dropped. The
// groups own their memory.
func DecodeGroups(b []byte) (groups []Group, n int) {
	var pending []Op
	for off := 0; len(b)-off >= frameHeaderSize; {
		kind := OpKind(b[off])
		plen := int(binary.BigEndian.Uint32(b[off+1 : off+frameHeaderSize]))
		if plen > maxPayload || len(b)-off-frameHeaderSize-4 < plen {
			break // torn or corrupt
		}
		payload := b[off+frameHeaderSize : off+frameHeaderSize+plen]
		end := off + frameHeaderSize + plen + 4
		if frameCRC(kind, payload) != binary.BigEndian.Uint32(b[end-4:end]) {
			break
		}
		switch {
		case kind == OpInsert && plen == record.Size:
			r, _ := record.Unmarshal(payload) // a whole record: cannot fail
			pending = append(pending, InsertOp(r))
		case kind == OpDelete && plen == deletePayloadSize:
			pending = append(pending, DeleteOp(
				record.ID(binary.BigEndian.Uint64(payload[0:8])),
				record.Key(binary.BigEndian.Uint32(payload[8:12]))))
		case kind == kindCommit && plen == commitPayloadSize &&
			int(binary.BigEndian.Uint32(payload[8:12])) == len(pending):
			groups = append(groups, Group{Seq: binary.BigEndian.Uint64(payload[0:8]), Ops: pending})
			pending, n = nil, end
		default:
			return groups, n
		}
		off = end
	}
	return groups, n
}

// maxPayload bounds a single frame payload; an op is at most one record.
const maxPayload = record.Size

// frameCRC is the CRC-32 (IEEE) of a frame's kind byte and payload. It
// continues from the kind byte's CRC (kindCRC) over the payload where it
// lies, so it allocates nothing.
func frameCRC(kind OpKind, payload []byte) uint32 {
	return crc32.Update(kindCRC[kind], crc32.IEEETable, payload)
}

// kindCRC[k] is the CRC-32 (IEEE) of the one byte k.
var kindCRC = func() (t [256]uint32) {
	for k := range t {
		t[k] = crc32.ChecksumIEEE([]byte{byte(k)})
	}
	return t
}()

// frameEnd completes the frame that starts at buf[at]: its kind byte, a
// length placeholder and its payload are already appended. It fills in
// the length and appends the CRC over the kind and the payload.
func frameEnd(buf []byte, at int) []byte {
	payload := buf[at+frameHeaderSize:]
	binary.BigEndian.PutUint32(buf[at+1:at+frameHeaderSize], uint32(len(payload)))
	return binary.BigEndian.AppendUint32(buf, frameCRC(OpKind(buf[at]), payload))
}

// frameStart appends a frame's kind byte and a length placeholder.
func frameStart(buf []byte, kind OpKind) []byte {
	return append(buf, byte(kind), 0, 0, 0, 0)
}

// EncodeGroup is the one encoder of a commit group: it appends the
// group's frames — one per op, then the commit marker — to buf. These are
// the bytes the log writes, the replication hub keeps and a replica pull
// ships.
func EncodeGroup(buf []byte, seq uint64, ops []Op) ([]byte, error) {
	for i := range ops {
		at := len(buf)
		switch ops[i].Kind {
		case OpInsert:
			buf = ops[i].Rec.AppendBinary(frameStart(buf, OpInsert))
		case OpDelete:
			buf = binary.BigEndian.AppendUint64(frameStart(buf, OpDelete), uint64(ops[i].ID))
			buf = binary.BigEndian.AppendUint32(buf, uint32(ops[i].Key))
		default:
			return buf, fmt.Errorf("wal: unknown op kind %d", ops[i].Kind)
		}
		buf = frameEnd(buf, at)
	}
	at := len(buf)
	buf = binary.BigEndian.AppendUint64(frameStart(buf, kindCommit), seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(ops)))
	return frameEnd(buf, at), nil
}

// Append appends a whole commit group as one write and fsyncs once. When
// it returns nil, the group is durable: a crash at any later point
// replays it in full. It returns the group's frames, which it encoded
// into the log's own buffer: they stay valid until the log's next
// append. ops is only read, and not retained.
func (l *Log) Append(seq uint64, ops []Op) ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	buf, err := EncodeGroup(l.buf[:0], seq, ops)
	if err != nil {
		return nil, err
	}
	if cap(buf) <= bufRetain {
		l.buf = buf
	}
	if _, err := l.f.WriteAt(buf, l.size); err != nil {
		return nil, fmt.Errorf("wal: appending group %d: %w", seq, err)
	}
	if err := l.f.Sync(); err != nil {
		return nil, fmt.Errorf("wal: syncing group %d: %w", seq, err)
	}
	l.size += int64(len(buf))
	l.syncs++
	l.groups++
	return buf, nil
}

// AppendGroup is Append for a caller that keeps no frames.
func (l *Log) AppendGroup(seq uint64, ops []Op) error {
	_, err := l.Append(seq, ops)
	return err
}

// Reset truncates the log to empty — the checkpoint barrier: every
// committed group is assumed captured by a durable checkpoint before the
// call.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: resetting log: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.size = 0
	return nil
}

// Size returns the log's current byte size.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Syncs returns the number of fsyncs issued since open — the cost group
// commit amortizes (one per group, regardless of group size).
func (l *Log) Syncs() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// Groups returns the number of groups appended since open.
func (l *Log) Groups() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.groups
}

// Close closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
