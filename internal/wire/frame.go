// Package wire puts the SAE protocol on the network: framing and codecs
// for every message the parties exchange, TCP servers wrapping the
// service provider, trusted entity, durable primary and read replica, and
// client stubs that measure real bytes on the wire — the deployment the
// paper describes, where "the client sends the query to both the TE and
// the SP simultaneously". TOM, the paper's baseline, runs in-process only
// (package tom).
//
// The protocol is deliberately simple: a 1-byte message type, a 4-byte
// big-endian request id, a 4-byte big-endian payload length, then the
// payload. Connections are persistent and may carry many requests in
// flight at once: the server handles each request concurrently and tags
// its response with the request's id, so responses may arrive out of
// order and the client demultiplexes by id (see client.go). Many queries
// are sent as many pipelined frames in one write (Conn.exchange); the
// server groups whatever arrived together.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"slices"
	"sync"

	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/wal"
)

// HeaderSize is the fixed frame header: type (1) + request id (4) +
// payload length (4).
const HeaderSize = 9

// MsgType discriminates protocol messages.
type MsgType byte

// Protocol message types.
const (
	// Client -> SP.
	MsgQuery MsgType = 1
	// SP -> client: record count + records.
	MsgResult MsgType = 2
	// Client -> TE.
	MsgVTRequest MsgType = 3
	// TE -> client: a 20-byte token.
	MsgVT MsgType = 4
	// 5-6 are retired and never reused (see the registry's reservation).
	// Generic success.
	MsgAck MsgType = 7
	// Error with a message string.
	MsgErr MsgType = 8
	// 9-14 are retired and never reused (see the registry's reservation).
	// Client -> any server: which shard are you, under which plan?
	MsgShardMapReq MsgType = 15
	// Server -> client: shard index + partition plan.
	MsgShardMap MsgType = 16
	// 17 is retired and never reused (see the registry's reservation).
	// Owner -> SP/TE/primary: a batch of freshly-synthesized records to
	// commit as one group (EncodeRecords payload).
	MsgBatchInsert MsgType = 18
	// Owner -> SP/TE/primary: a batch of deletions to commit as one group.
	MsgBatchDelete MsgType = 19
	// Client -> SP (or router): COUNT/SUM/MIN/MAX over a range from the
	// SP's annotations — unverified; no verified aggregate asks for it.
	MsgAggQuery MsgType = 20
	// SP -> client: the 24-byte aggregate scalar (agg.Agg wire form).
	MsgAggResult MsgType = 21
	// Client -> TE, primary, replica (or router): a verified aggregate —
	// the range-bound aggregate token for a range.
	MsgAggTokenReq MsgType = 22
	// TE -> client: the 44-byte range-bound aggregate token (agg.Token
	// wire form), whose aggregate is the verified answer.
	MsgAggToken MsgType = 23
	// 24-26 are retired and never reused (see the registry's reservation).
	// Client/router -> primary or replica: what is your generation stamp
	// (the sequence of the last commit group folded into your state)?
	MsgGenStampReq MsgType = 27
	// Server -> client: an 8-byte big-endian generation stamp.
	MsgGenStamp MsgType = 28
	// Replica -> primary: send me a bootstrap snapshot.
	MsgReplicaSnapReq MsgType = 29
	// Primary -> replica: shard attestation + a sequence-stamped record
	// dump cut at a commit boundary (the checkpoint's own byte format).
	MsgReplicaSnap MsgType = 30
	// Replica -> primary: commit groups after my sequence, please.
	MsgReplicaPull MsgType = 31
	// Primary -> replica: a flags byte (bit 0: the retention window no
	// longer reaches your sequence — re-bootstrap from a snapshot) plus
	// zero or more whole commit groups, in their WAL frames.
	MsgReplicaGroups MsgType = 32
	// Client (or router) -> primary/replica: one range query whose
	// records, verification token and generation stamp must be served
	// atomically at a single commit boundary — the frame that makes
	// replica reads safe under concurrent group application.
	MsgVerifiedQuery MsgType = 33
	// Server -> client: plan epoch + generation stamp + 20-byte VT +
	// records. The whole quadruple belongs to one generation under one
	// topology, so the XOR check can never tear across a commit and a
	// merged answer can never silently mix epochs.
	MsgVerifiedResult MsgType = 34
	// Reshard coordinator -> server: adopt this shard attestation (index
	// + epoched plan, EncodeShardInfo payload). Servers accept only a
	// strictly higher epoch, so a replayed update cannot roll a server
	// back to a stale topology.
	MsgPlanUpdate MsgType = 35
	// Reshard coordinator -> primary: block new write commits (8-byte TTL
	// in milliseconds; the server auto-thaws when it expires so a dead
	// coordinator cannot freeze writes forever). Acked only after every
	// in-flight group is committed and visible in the WAL stream.
	MsgFreeze MsgType = 36
	// Reshard coordinator -> primary: release a freeze.
	MsgThaw MsgType = 37
	// Reshard coordinator -> primary: the shard has been migrated away —
	// permanently refuse writes and client reads (replication pulls keep
	// working so stragglers can still drain).
	MsgRetire MsgType = 38
	// Reshard coordinator -> router: cut over to a new topology (epoched
	// plan + per-shard SP/TE address lists, EncodeCutover payload). The
	// router re-runs attestation against the new upstreams and accepts
	// only a strictly higher epoch.
	MsgReshardCutover MsgType = 39
	// 40-41 are retired and never reused (see the registry's reservation).
)

// MaxPayload bounds a frame payload (64 MiB — far above any legal
// response) to stop a corrupt or malicious length prefix from driving an
// allocation.
const MaxPayload = 64 << 20

// ErrProtocol is wrapped by all framing and decoding failures.
var ErrProtocol = errors.New("wire: protocol error")

// Frame is one protocol message. ID correlates a response with its
// request: servers echo the request's id, clients pick any id unique
// among their in-flight requests (0 is fine for strictly sequential use).
type Frame struct {
	Type    MsgType
	ID      uint32
	Payload []byte
	// refs are spans a RespBuf spliced into Payload by reference
	// (RespBuf.AppendRef); only RespBuf.Frame sets them.
	refs []payloadRef
}

// payloadRef is one span of a payload carried by reference: on the wire p
// follows the first at bytes of the payload's own bytes.
type payloadRef struct {
	at int
	p  []byte
}

// payloadLen is the payload's length on the wire.
func (f *Frame) payloadLen() int {
	n := len(f.Payload)
	for _, ref := range f.refs {
		n += len(ref.p)
	}
	return n
}

// appendPayload appends the payload's wire image to iov: the own bytes
// with every referenced span spliced in where it was appended.
func (f *Frame) appendPayload(iov net.Buffers) net.Buffers {
	from := 0
	for _, ref := range f.refs {
		if ref.at > from {
			iov = append(iov, f.Payload[from:ref.at])
			from = ref.at
		}
		iov = append(iov, ref.p)
	}
	if len(f.Payload) > from {
		iov = append(iov, f.Payload[from:])
	}
	return iov
}

func putHeader(hdr []byte, typ MsgType, id uint32, n int) {
	hdr[0] = byte(typ)
	binary.BigEndian.PutUint32(hdr[1:5], id)
	binary.BigEndian.PutUint32(hdr[5:9], uint32(n))
}

// Received payloads of minPooled..respBufRetain bytes come from one
// size-classed pool (power-of-two capacities); smaller and larger ones
// are plain allocations. Whoever is handed a payload owns it and may
// Release it once nothing references it any more; a payload that is never
// released is simply garbage collected.
const (
	minPooledShift = 10
	minPooled      = 1 << minPooledShift
)

var payloadPools [22 - minPooledShift + 1]sync.Pool // one per class, 1<<10 .. respBufRetain = 1<<22

// releaseHook, when set, sees every payload on its way back to the pool.
var releaseHook func(p []byte)

// SetReleaseHook installs a function that is handed every released
// payload just before it is pooled. It exists for tests, which poison the
// bytes so that a use after Release fails loudly; install it before any
// connection exists (TestMain).
func SetReleaseHook(hook func(p []byte)) { releaseHook = hook }

func getPayload(n int) []byte {
	if n < minPooled || n > respBufRetain {
		return make([]byte, n)
	}
	class := bits.Len(uint(n - 1))
	if p, _ := payloadPools[class-minPooledShift].Get().(*[]byte); p != nil {
		return (*p)[:n]
	}
	return make([]byte, n, 1<<class)
}

// Release returns a received payload to the receive pool. The caller must
// own it (a Conn or ReadFrame handed it the Frame, or the payload) and
// nothing may reference its bytes afterwards. Slices the pool did not hand
// out — too small, too large, or cut from the middle of a payload — are
// left to the garbage collector.
func Release(p []byte) {
	c := cap(p)
	if c < minPooled || c > respBufRetain || c&(c-1) != 0 {
		return
	}
	if releaseHook != nil {
		releaseHook(p[:c])
	}
	payloadPools[bits.TrailingZeros(uint(c))-minPooledShift].Put(&p)
}

// WriteFrame writes a frame to w in one write: writeFrames of one.
func WriteFrame(w io.Writer, f Frame) error {
	fs := [1]Frame{f}
	_, err := writeFrames(w, fs[:])
	return err
}

// writeFrames writes a group of frames to w in one write and returns the
// bytes written: payloads totalling less than minPooled are copied behind
// their headers into one buffer, anything larger (or spliced) goes out as
// one vectored write.
func writeFrames(w io.Writer, fs []Frame) (int, error) {
	n, spliced := 0, false
	for i := range fs {
		n += HeaderSize + fs[i].payloadLen()
		spliced = spliced || len(fs[i].refs) > 0
	}
	var err error
	if !spliced && n-len(fs)*HeaderSize < minPooled {
		buf, at := make([]byte, n), 0
		for i := range fs {
			putHeader(buf[at:], fs[i].Type, fs[i].ID, len(fs[i].Payload))
			at += HeaderSize + copy(buf[at+HeaderSize:], fs[i].Payload)
		}
		_, err = w.Write(buf)
	} else {
		hdrs := make([]byte, len(fs)*HeaderSize)
		iov := make(net.Buffers, 0, 2*len(fs))
		for i := range fs {
			h := hdrs[i*HeaderSize : (i+1)*HeaderSize]
			putHeader(h, fs[i].Type, fs[i].ID, fs[i].payloadLen())
			iov = fs[i].appendPayload(append(iov, h))
		}
		_, err = iov.WriteTo(w)
	}
	if err != nil {
		return 0, fmt.Errorf("wire: writing frame: %w", err)
	}
	return n, nil
}

// ReadFrame reads one frame from r. Its payload comes from the receive
// pool and is the caller's, to Release or to drop. A payload that arrives
// short goes straight back to the pool: a truncated frame never reaches
// anyone.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[5:9])
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, n)
	}
	f := Frame{
		Type:    MsgType(hdr[0]),
		ID:      binary.BigEndian.Uint32(hdr[1:5]),
		Payload: getPayload(int(n)),
	}
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		Release(f.Payload)
		return Frame{}, fmt.Errorf("%w: truncated payload: %v", ErrProtocol, err)
	}
	return f, nil
}

// EncodeRange serializes a query range.
func EncodeRange(q record.Range) []byte {
	var b [8]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(q.Lo))
	binary.BigEndian.PutUint32(b[4:8], uint32(q.Hi))
	return b[:]
}

// DecodeRange parses a query range.
func DecodeRange(b []byte) (record.Range, error) {
	if len(b) != 8 {
		return record.Range{}, fmt.Errorf("%w: range payload of %d bytes", ErrProtocol, len(b))
	}
	return record.Range{
		Lo: record.Key(binary.BigEndian.Uint32(b[0:4])),
		Hi: record.Key(binary.BigEndian.Uint32(b[4:8])),
	}, nil
}

// EncodeRecords serializes a record list: count then fixed-size records.
func EncodeRecords(recs []record.Record) []byte {
	out := make([]byte, 4, 4+len(recs)*record.Size)
	binary.BigEndian.PutUint32(out[0:4], uint32(len(recs)))
	for i := range recs {
		out = recs[i].AppendBinary(out)
	}
	return out
}

// DecodeRecords parses a record list, returning any trailing bytes.
func DecodeRecords(b []byte) ([]record.Record, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated record count", ErrProtocol)
	}
	n := int(binary.BigEndian.Uint32(b[0:4]))
	b = b[4:]
	// Every record occupies record.Size bytes, so a count the remaining
	// payload cannot hold is rejected before the count-sized allocation.
	if n > len(b)/record.Size {
		return nil, nil, fmt.Errorf("%w: implausible record count %d for %d payload bytes", ErrProtocol, n, len(b))
	}
	// Each record is decoded straight into its slot: one copy of its bytes.
	recs := make([]record.Record, n)
	for i := range recs {
		enc := b[i*record.Size : (i+1)*record.Size]
		recs[i].ID = record.WireID(enc)
		recs[i].Key = record.WireKey(enc)
		copy(recs[i].Payload[:], enc[record.Size-record.PayloadSize:])
	}
	return recs, b[n*record.Size:], nil
}

// RecordsView validates the EncodeRecords framing of b without decoding:
// it returns the n*record.Size bytes of raw encoded records as a subslice
// (zero-copy — callers hash or decode in place) plus any trailing bytes.
func RecordsView(b []byte) (enc, rest []byte, n int, err error) {
	if len(b) < 4 {
		return nil, nil, 0, fmt.Errorf("%w: truncated record count", ErrProtocol)
	}
	n = int(binary.BigEndian.Uint32(b[0:4]))
	b = b[4:]
	if n > len(b)/record.Size {
		return nil, nil, 0, fmt.Errorf("%w: implausible record count %d for %d payload bytes", ErrProtocol, n, len(b))
	}
	return b[:n*record.Size], b[n*record.Size:], n, nil
}

// ShardInfo identifies one server's place in a sharded deployment: its
// shard index and the key-range partition plan every shard was loaded
// under. A stand-alone server is shard 0 of the single-shard plan.
type ShardInfo struct {
	Index int
	Plan  shard.Plan
}

// EncodeShardInfo serializes a shard map response: index, then the plan.
func EncodeShardInfo(si ShardInfo) []byte {
	out := make([]byte, 4)
	binary.BigEndian.PutUint32(out[0:4], uint32(si.Index))
	return append(out, si.Plan.Marshal()...)
}

// DecodeShardInfo parses a shard map response, validating the plan and
// that the index falls inside it.
func DecodeShardInfo(b []byte) (ShardInfo, error) {
	if len(b) < 4 {
		return ShardInfo{}, fmt.Errorf("%w: truncated shard map", ErrProtocol)
	}
	idx := int(binary.BigEndian.Uint32(b[0:4]))
	plan, rest, err := shard.UnmarshalPlan(b[4:])
	if err != nil {
		return ShardInfo{}, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if len(rest) != 0 {
		return ShardInfo{}, fmt.Errorf("%w: %d trailing bytes in shard map", ErrProtocol, len(rest))
	}
	if idx < 0 || idx >= plan.Shards() {
		return ShardInfo{}, fmt.Errorf("%w: shard index %d outside %d-shard plan", ErrProtocol, idx, plan.Shards())
	}
	return ShardInfo{Index: idx, Plan: plan}, nil
}

// EncodeDeletes serializes a deletion batch: count, then 12 bytes per
// deletion (8-byte id + 4-byte key, big-endian).
func EncodeDeletes(ids []record.ID, keys []record.Key) []byte {
	out := make([]byte, 4, 4+len(ids)*12)
	binary.BigEndian.PutUint32(out[0:4], uint32(len(ids)))
	for i := range ids {
		var b [12]byte
		binary.BigEndian.PutUint64(b[0:8], uint64(ids[i]))
		binary.BigEndian.PutUint32(b[8:12], uint32(keys[i]))
		out = append(out, b[:]...)
	}
	return out
}

// DecodeDeletes appends to ops one delete per entry of a deletion batch
// (EncodeDeletes) and returns the extended slice.
func DecodeDeletes(b []byte, ops []wal.Op) ([]wal.Op, error) {
	if len(b) < 4 {
		return ops, fmt.Errorf("%w: truncated delete count", ErrProtocol)
	}
	n := int(binary.BigEndian.Uint32(b[0:4]))
	b = b[4:]
	if n > len(b)/12 {
		return ops, fmt.Errorf("%w: implausible delete count %d for %d payload bytes", ErrProtocol, n, len(b))
	}
	ops = slices.Grow(ops, n)
	for ; n > 0; n, b = n-1, b[12:] {
		ops = append(ops, wal.DeleteOp(record.ID(binary.BigEndian.Uint64(b[0:8])), record.Key(binary.BigEndian.Uint32(b[8:12]))))
	}
	return ops, nil
}

// DecodeInserts appends to ops one insert per record of an insert batch
// (EncodeRecords, with nothing after the records) and returns the
// extended slice.
func DecodeInserts(b []byte, ops []wal.Op) ([]wal.Op, error) {
	enc, rest, n, err := RecordsView(b)
	if err != nil {
		return ops, err
	}
	if len(rest) != 0 {
		return ops, fmt.Errorf("%w: %d trailing bytes after insert batch", ErrProtocol, len(rest))
	}
	ops = slices.Grow(ops, n)
	for ; len(enc) > 0; enc = enc[record.Size:] {
		r, _ := record.Unmarshal(enc)
		ops = append(ops, wal.InsertOp(r))
	}
	return ops, nil
}
