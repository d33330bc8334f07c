// Package digest implements the 20-byte record digests and the XOR
// aggregation that underpin both outsourcing models.
//
// In SAE the trusted entity stores one digest per record and answers a range
// query with the XOR of the digests of the qualifying records (the
// verification token, S⊕ in the paper). In TOM the same digests seed the
// MB-Tree's Merkle hierarchy, where an intermediate digest is the hash of
// the concatenation of the digests in the page it points to.
//
// Digests are SHA-1 (20 bytes), matching the paper's experimental setup.
package digest

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"

	"sae/internal/record"
)

// Size is the digest length in bytes (SHA-1).
const Size = sha1.Size // 20

// Digest is a 20-byte one-way, collision-resistant hash value.
type Digest [Size]byte

// Zero is the XOR identity: x.XOR(Zero) == x.
var Zero Digest

// OfBytes hashes an arbitrary byte string.
func OfBytes(b []byte) Digest {
	return sum20(b)
}

// OfRecord hashes the canonical binary representation of a record. This is
// the digest the TE stores, the MB-Tree's leaf digest, and what the client
// recomputes for every record it receives from the SP.
func OfRecord(r *record.Record) Digest {
	var buf [record.Size]byte
	h := r.AppendBinary(buf[:0])
	return sum20(h)
}

// OfWire hashes a canonical record encoding directly out of a wire frame
// or page buffer — the zero-copy path: no record materialization, no
// serialization, the borrowed bytes are hashed in place. It panics if b is
// not exactly record.Size bytes (the fixed encoding every party agrees
// on), because hashing a partial record would silently verify garbage.
func OfWire(b []byte) Digest {
	if len(b) != record.Size {
		panic("digest: OfWire requires exactly one encoded record")
	}
	return sum20(b)
}

// XOR returns d ⊕ o. The 20 bytes are folded as two uint64 words plus one
// uint32 — XOR is endian-agnostic, and the fixed-width loads compile to
// plain word ops. This path is hot in both VT generation (XB-Tree X
// maintenance) and client-side verification.
func (d Digest) XOR(o Digest) Digest {
	var out Digest
	binary.LittleEndian.PutUint64(out[0:8], binary.LittleEndian.Uint64(d[0:8])^binary.LittleEndian.Uint64(o[0:8]))
	binary.LittleEndian.PutUint64(out[8:16], binary.LittleEndian.Uint64(d[8:16])^binary.LittleEndian.Uint64(o[8:16]))
	binary.LittleEndian.PutUint32(out[16:20], binary.LittleEndian.Uint32(d[16:20])^binary.LittleEndian.Uint32(o[16:20]))
	return out
}

// IsZero reports whether d is the all-zero digest (the XOR identity).
func (d Digest) IsZero() bool {
	return d == Zero
}

// String renders the digest as lowercase hex.
func (d Digest) String() string {
	return hex.EncodeToString(d[:])
}

// XORAll folds a list of digests with XOR. An empty list yields Zero,
// mirroring the paper's convention that the XOR over an empty set is 0.
// The fold runs in three word-sized accumulators so the output digest is
// materialized once, not per element.
func XORAll(ds ...Digest) Digest {
	var x0, x1 uint64
	var x2 uint32
	for i := range ds {
		x0 ^= binary.LittleEndian.Uint64(ds[i][0:8])
		x1 ^= binary.LittleEndian.Uint64(ds[i][8:16])
		x2 ^= binary.LittleEndian.Uint32(ds[i][16:20])
	}
	var out Digest
	binary.LittleEndian.PutUint64(out[0:8], x0)
	binary.LittleEndian.PutUint64(out[8:16], x1)
	binary.LittleEndian.PutUint32(out[16:20], x2)
	return out
}

// Accumulator incrementally XOR-folds digests. Because XOR is its own
// inverse, Add doubles as Remove: adding a digest twice cancels it, which is
// exactly how the XB-Tree maintains its X values under insertions and
// deletions.
type Accumulator struct {
	acc Digest
}

// Add folds d into the accumulator, word-wise.
func (a *Accumulator) Add(d Digest) {
	xorInto(&a.acc, d[:])
}

// AddBytes folds a raw 20-byte slice into the accumulator. It panics if b is
// not exactly Size bytes; callers hand it slices of on-page digest storage.
func (a *Accumulator) AddBytes(b []byte) {
	if len(b) != Size {
		panic("digest: AddBytes requires exactly 20 bytes")
	}
	xorInto(&a.acc, b)
}

// xorInto folds exactly Size bytes of src into dst as machine words.
func xorInto(dst *Digest, src []byte) {
	binary.LittleEndian.PutUint64(dst[0:8], binary.LittleEndian.Uint64(dst[0:8])^binary.LittleEndian.Uint64(src[0:8]))
	binary.LittleEndian.PutUint64(dst[8:16], binary.LittleEndian.Uint64(dst[8:16])^binary.LittleEndian.Uint64(src[8:16]))
	binary.LittleEndian.PutUint32(dst[16:20], binary.LittleEndian.Uint32(dst[16:20])^binary.LittleEndian.Uint32(src[16:20]))
}

// Sum returns the current XOR fold.
func (a *Accumulator) Sum() Digest { return a.acc }

// Reset clears the accumulator to Zero.
func (a *Accumulator) Reset() { a.acc = Zero }

// Concat returns H(d1 || d2 || ... || dk), the Merkle combination used for
// MB-Tree intermediate entries.
func Concat(ds ...Digest) Digest {
	var w ConcatWriter
	w.Reset()
	for _, d := range ds {
		w.Add(d)
	}
	return w.Sum()
}

// ConcatWriter incrementally computes a Merkle node digest without
// materializing the child digest list. It runs on the package's own SHA-1
// core (SHA-NI accelerated where available), buffers in place and never
// allocates, so VO verification can re-hash an entire Merkle path with
// zero garbage. The zero value is NOT ready; call Reset (or use
// NewConcatWriter) first.
type ConcatWriter struct {
	h   [5]uint32
	buf [64]byte
	n   int
	len uint64
	// std carries the stdlib hasher when SHA-NI is off: crypto/sha1's AVX2
	// schedule beats our portable block, so the fallback defers to it.
	std interface {
		Write(p []byte) (int, error)
		Sum(b []byte) []byte
	}
}

// NewConcatWriter returns a streaming Merkle-node hasher.
func NewConcatWriter() *ConcatWriter {
	w := &ConcatWriter{}
	w.Reset()
	return w
}

// Reset restores the initial hash state so one writer can be reused
// across many Merkle nodes without reallocation.
func (w *ConcatWriter) Reset() {
	if !Accelerated {
		w.std = sha1.New()
		return
	}
	w.h = sha1init
	w.n = 0
	w.len = 0
}

// Add appends one child digest to the stream.
func (w *ConcatWriter) Add(d Digest) {
	if w.std != nil {
		w.std.Write(d[:])
		return
	}
	w.len += Size
	b := d[:]
	if w.n > 0 {
		c := copy(w.buf[w.n:], b)
		w.n += c
		if w.n < 64 {
			return
		}
		compress(&w.h, w.buf[:])
		w.n = 0
		b = b[c:]
	}
	// A 20-byte digest never fills a whole block on its own once the
	// buffer has drained.
	w.n += copy(w.buf[:], b)
}

// Write appends raw bytes of any length to the stream — the generic path
// for Merkle node formulas that interleave keys and aggregate annotations
// with child digests (see mbtree's node hashing).
func (w *ConcatWriter) Write(p []byte) {
	if w.std != nil {
		w.std.Write(p)
		return
	}
	w.len += uint64(len(p))
	if w.n > 0 {
		c := copy(w.buf[w.n:], p)
		w.n += c
		if w.n < 64 {
			return
		}
		compress(&w.h, w.buf[:])
		w.n = 0
		p = p[c:]
	}
	if full := len(p) &^ 63; full > 0 {
		compress(&w.h, p[:full])
		p = p[full:]
	}
	w.n += copy(w.buf[:], p)
}

// Sum finalizes the node digest. The writer remains usable (Sum does not
// disturb the running state), matching hash.Hash semantics.
func (w *ConcatWriter) Sum() Digest {
	if w.std != nil {
		var out Digest
		copy(out[:], w.std.Sum(nil))
		return out
	}
	h := w.h
	var tail [128]byte
	n := copy(tail[:], w.buf[:w.n])
	tail[n] = 0x80
	end := 64
	if n+9 > 64 {
		end = 128
	}
	binary.BigEndian.PutUint64(tail[end-8:end], w.len<<3)
	compress(&h, tail[:end])
	var out Digest
	binary.BigEndian.PutUint32(out[0:4], h[0])
	binary.BigEndian.PutUint32(out[4:8], h[1])
	binary.BigEndian.PutUint32(out[8:12], h[2])
	binary.BigEndian.PutUint32(out[12:16], h[3])
	binary.BigEndian.PutUint32(out[16:20], h[4])
	return out
}

// FromBytes copies a 20-byte slice into a Digest. It panics on length
// mismatch; it is used when decoding digests out of fixed page layouts.
func FromBytes(b []byte) Digest {
	if len(b) != Size {
		panic("digest: FromBytes requires exactly 20 bytes")
	}
	var d Digest
	copy(d[:], b)
	return d
}
