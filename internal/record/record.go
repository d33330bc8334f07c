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
	// Cheap xorshift64* stream keyed by the id; this is filler data, not
	// cryptographic material (digests over it come from crypto/sha1).
	x := uint64(id)*0x9E3779B97F4A7C15 + 1
	for i := 0; i < PayloadSize; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x*0x2545F4914F6CDD1D)
		copy(r.Payload[i:], w[:])
	}
	return r
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
