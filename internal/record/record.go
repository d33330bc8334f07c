// Package record defines the canonical record model used by every party in
// the outsourcing framework: the data owner ships records, the service
// provider stores and serves them, the trusted entity keeps a digest of each,
// and the client hashes them during verification.
//
// Following the paper's experimental setup, a record is exactly 500 bytes:
// an 8-byte identifier, a 4-byte search key drawn from [0, 10^7], and an
// opaque 488-byte payload standing in for the remaining attributes
// (manufacturer, model, ... in the paper's camera example).
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Size is the total encoded size of a record in bytes, as fixed by the
// paper's evaluation section.
const Size = 500

// PayloadSize is the number of opaque attribute bytes in a record.
const PayloadSize = Size - 8 - 4 // 488

// KeyDomain is the exclusive upper bound of the search-key domain [0, 10^7].
const KeyDomain = 10_000_000

// ID uniquely identifies a record. Identifiers are assigned by the data
// owner and never reused.
type ID uint64

// Key is the value of the (single) range-query attribute.
type Key uint32

// Record is one row of the outsourced relation R.
type Record struct {
	ID      ID
	Key     Key
	Payload [PayloadSize]byte
}

// ErrShortBuffer is returned by Unmarshal when fewer than Size bytes are
// available.
var ErrShortBuffer = errors.New("record: buffer shorter than encoded record")

// AppendBinary appends the canonical 500-byte encoding of r to b and returns
// the extended slice. The encoding is what both the TE and the client hash;
// it must be deterministic and identical everywhere.
func (r *Record) AppendBinary(b []byte) []byte {
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[0:8], uint64(r.ID))
	binary.BigEndian.PutUint32(hdr[8:12], uint32(r.Key))
	b = append(b, hdr[:]...)
	return append(b, r.Payload[:]...)
}

// Marshal returns the canonical 500-byte encoding of r.
func (r *Record) Marshal() []byte {
	return r.AppendBinary(make([]byte, 0, Size))
}

// Unmarshal decodes a record from the first Size bytes of b.
func Unmarshal(b []byte) (Record, error) {
	var r Record
	if len(b) < Size {
		return r, ErrShortBuffer
	}
	r.ID = ID(binary.BigEndian.Uint64(b[0:8]))
	r.Key = Key(binary.BigEndian.Uint32(b[8:12]))
	copy(r.Payload[:], b[12:Size])
	return r, nil
}

// EachEncoded decodes every record of enc, a run of back-to-back canonical
// encodings, into the one scratch record r and calls emit with it; emit
// must not retain r. A trailing partial record is ignored.
func EachEncoded(enc []byte, r *Record, emit func(*Record) error) error {
	for ; len(enc) >= Size; enc = enc[Size:] {
		*r, _ = Unmarshal(enc)
		if err := emit(r); err != nil {
			return err
		}
	}
	return nil
}

// WireID reads the identifier out of a canonical record encoding without
// decoding the record — the zero-copy path peeks at borrowed wire bytes
// in place. b must hold at least Size bytes of one encoded record.
func WireID(b []byte) ID {
	return ID(binary.BigEndian.Uint64(b[0:8]))
}

// WireKey reads the search key out of a canonical record encoding without
// decoding the record; see WireID.
func WireKey(b []byte) Key {
	return Key(binary.BigEndian.Uint32(b[8:12]))
}

// Synthesize builds a record with a deterministic payload derived from its
// id. Workload generators use it so that datasets are reproducible from a
// seed without storing 500 bytes per record in the generator itself.
func Synthesize(id ID, key Key) Record {
	r := Record{ID: id, Key: key}
	synthesizePayload(r.Payload[:], id)
	return r
}

// SynthesizeInto writes the canonical encoding of Synthesize(id, key)
// into dst[:Size] without building the record.
func SynthesizeInto(dst []byte, id ID, key Key) {
	binary.BigEndian.PutUint64(dst[0:8], uint64(id))
	binary.BigEndian.PutUint32(dst[8:12], uint32(key))
	synthesizePayload(dst[12:Size], id)
}

// synthesizePayload fills p, PayloadSize bytes, from a cheap xorshift64*
// stream keyed by id; this is filler data, not cryptographic material
// (digests over it come from crypto/sha1).
func synthesizePayload(p []byte, id ID) {
	x := uint64(id)*0x9E3779B97F4A7C15 + 1
	for i := 0; i < PayloadSize; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(p[i:i+8], x*0x2545F4914F6CDD1D)
	}
}

// Reader streams the canonical encodings of n records back to back, each
// written in place by fill(i, dst) into the Size bytes dst of record i;
// an error from fill ends the stream with it. A Read of whole records
// fills the caller's buffer directly; a record a Read would split goes
// through one scratch encoding.
type Reader struct {
	n, i int
	fill func(i int, dst []byte) error
	part [Size]byte
	rest []byte // the unread tail of part
}

// NewReader returns a Reader over n records.
func NewReader(n int, fill func(i int, dst []byte) error) *Reader {
	return &Reader{n: n, fill: fill}
}

// ReaderOf streams the encodings of recs, each encoded once.
func ReaderOf(recs []Record) *Reader {
	return NewReader(len(recs), func(i int, dst []byte) error {
		recs[i].AppendBinary(dst[:0])
		return nil
	})
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	n := copy(p, r.rest)
	r.rest = r.rest[n:]
	for ; len(p)-n >= Size && r.i < r.n; r.i++ {
		if err := r.fill(r.i, p[n:n+Size]); err != nil {
			return n, err
		}
		n += Size
	}
	if n < len(p) && r.i < r.n {
		if err := r.fill(r.i, r.part[:]); err != nil {
			return n, err
		}
		r.i++
		c := copy(p[n:], r.part[:])
		r.rest = r.part[c:]
		n += c
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// String summarizes the record for logs and debugging tools.
func (r *Record) String() string {
	return fmt.Sprintf("record{id=%d key=%d}", r.ID, r.Key)
}

// Equal reports whether two records are byte-for-byte identical.
func (r *Record) Equal(o *Record) bool {
	return r.ID == o.ID && r.Key == o.Key && r.Payload == o.Payload
}

// SortByKey is a comparison helper: records are ordered by key, ties broken
// by id so that sorts are total and deterministic.
func SortByKey(a, b Record) int {
	switch {
	case a.Key < b.Key:
		return -1
	case a.Key > b.Key:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}
