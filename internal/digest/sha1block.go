package digest

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"sae/internal/record"
)

// This file carries the package's own SHA-1 core: a portable block
// function, a SHA-NI accelerated one on amd64 (sha1block_amd64.s), a
// 16-lane AVX-512 kernel for batches of records (sha1x16_amd64.s), and a
// small streaming state shared by the one-shot and Merkle-concat paths.
// Results are bit-identical to crypto/sha1 (enforced by TestSHA1MatchesStdlib);
// the point of owning the core is (a) dispatching to the SHA-NI compression
// the stdlib lacks and (b) hashing borrowed byte slices with zero
// allocation, which the fast serve/verify paths rely on.

// Accelerated reports whether the SHA-NI block function is in use. It is
// set during init on amd64 CPUs with the SHA extensions (and left false
// under SAE_DISABLE_SHANI=1).
//
// compress (defined per-arch) dispatches to the active block function with
// direct calls — a function variable here would defeat escape analysis and
// put every padding scratch on the heap.
var Accelerated bool

// sha1init is the SHA-1 initial state (FIPS 180-4).
var sha1init = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}

// x16Min is the fewest records worth one pass of the 16-lane kernel. A
// pass costs the same for 1 record as for 16 (1.3 µs on a Sapphire
// Rapids core, BenchmarkSHA1x16), against 0.33 µs per record through the
// two-lane SHA-NI pair: 4 records tie, 5 go faster through the kernel.
const x16Min = 5

// sumRecords writes to ds[i] the digest of the i-th of the len(ds) <= 16
// canonical record encodings packed in enc, down the batch paths' ladder:
// one pass of the 16-lane AVX-512 kernel when available and worth it
// (x16Min), else the two-lane SHA-NI pair, else one record at a time.
func sumRecords(ds []Digest, enc []byte) {
	k := len(ds)
	if hasX16 && k >= x16Min {
		var out [16]Digest
		sha1x16(&out, enc[:k*record.Size])
		copy(ds, out[:k])
		return
	}
	i := 0
	if Accelerated {
		for ; i+1 < k; i += 2 {
			ds[i], ds[i+1] = sumRecordPairNI(enc[i*record.Size:(i+1)*record.Size], enc[(i+1)*record.Size:(i+2)*record.Size])
		}
	}
	for ; i < k; i++ {
		ds[i] = OfWire(enc[i*record.Size : (i+1)*record.Size])
	}
}

// foldWireInto XOR-folds the digests of the canonical record encodings
// packed in enc, 16 records at a time. Callers guarantee whole records.
func foldWireInto(acc *Accumulator, enc []byte) {
	var ds [16]Digest
	for len(enc) > 0 {
		k := min(len(enc)/record.Size, 16)
		sumRecords(ds[:k], enc)
		acc.Add(XORAll(ds[:k]...))
		enc = enc[k*record.Size:]
	}
}

// digestRecordsInto fills dst[i] with OfRecord(&recs[i]): ReadWire over
// the records' encodings, each encoded once. The stream cannot run
// short, so ReadWire cannot fail.
func digestRecordsInto(dst []Digest, recs []record.Record) {
	i := 0
	ReadWire(record.ReaderOf(recs), len(recs), func(_ []byte, d Digest) {
		dst[i] = d
		i++
	})
}

// AppendWire appends to dst the digest of each canonical record encoding
// packed back to back in enc (OfWire of each), hashing 16 records a pass
// where they lie. Callers pass whole records.
func AppendWire(dst []Digest, enc []byte) []Digest {
	for len(enc) >= record.Size {
		k, n := min(len(enc)/record.Size, 16), len(dst)
		dst = slices.Grow(dst, k)[:n+k]
		sumRecords(dst[n:], enc)
		enc = enc[k*record.Size:]
	}
	return dst
}

// ReadWire reads the canonical encodings of n records from src, 16 at a
// time into one stack buffer, hashes each 16 in one pass where they lie,
// and hands each record's encoding and digest (OfWire of it) to each, in
// order. The encoding is valid only during the call.
func ReadWire(src io.Reader, n int, each func(enc []byte, d Digest)) error {
	var buf [16 * record.Size]byte
	var ds [16]Digest
	for i := 0; i < n; i += 16 {
		k := min(n-i, 16)
		enc := buf[:k*record.Size]
		if _, err := io.ReadFull(src, enc); err != nil {
			return fmt.Errorf("digest: reading records %d..%d of %d: %w", i, i+k, n, err)
		}
		sumRecords(ds[:k], enc)
		for j := range k {
			each(enc[j*record.Size:(j+1)*record.Size], ds[j])
		}
	}
	return nil
}

// sha1blockGeneric is the textbook SHA-1 compression, processing
// len(p)/64 blocks. It mirrors crypto/sha1's blockGeneric (same schedule,
// plain Go) and is the fallback where SHA-NI is unavailable.
func sha1blockGeneric(h *[5]uint32, p []byte) {
	var w [16]uint32
	h0, h1, h2, h3, h4 := h[0], h[1], h[2], h[3], h[4]
	for len(p) >= 64 {
		for i := 0; i < 16; i++ {
			w[i] = binary.BigEndian.Uint32(p[4*i:])
		}
		a, b, c, d, e := h0, h1, h2, h3, h4
		for i := 0; i < 80; i++ {
			var f, k uint32
			switch {
			case i < 20:
				f = (b & c) | (^b & d)
				k = 0x5A827999
			case i < 40:
				f = b ^ c ^ d
				k = 0x6ED9EBA1
			case i < 60:
				f = (b & c) | (b & d) | (c & d)
				k = 0x8F1BBCDC
			default:
				f = b ^ c ^ d
				k = 0xCA62C1D6
			}
			var wi uint32
			if i < 16 {
				wi = w[i]
			} else {
				wi = w[(i-3)&15] ^ w[(i-8)&15] ^ w[(i-14)&15] ^ w[i&15]
				wi = wi<<1 | wi>>31
				w[i&15] = wi
			}
			t := (a<<5 | a>>27) + f + e + k + wi
			a, b, c, d, e = t, a, b<<30|b>>2, c, d
		}
		h0 += a
		h1 += b
		h2 += c
		h3 += d
		h4 += e
		p = p[64:]
	}
	h[0], h[1], h[2], h[3], h[4] = h0, h1, h2, h3, h4
}

// sum20 computes the SHA-1 digest of b with the active block function.
// The bulk of b is hashed in place (no copy); only the final partial
// block goes through a stack scratch for padding. Allocation-free.
func sum20(b []byte) Digest {
	if !Accelerated {
		// The stdlib's AVX2 schedule beats our portable loop; use it when
		// SHA-NI is off so the fallback is never slower than the seed.
		return sha1.Sum(b)
	}
	h := sha1init
	full := len(b) &^ 63
	if full > 0 {
		compress(&h, b[:full])
	}
	var tail [128]byte
	n := copy(tail[:], b[full:])
	tail[n] = 0x80
	end := 64
	if n+9 > 64 {
		end = 128
	}
	binary.BigEndian.PutUint64(tail[end-8:end], uint64(len(b))<<3)
	compress(&h, tail[:end])
	var out Digest
	binary.BigEndian.PutUint32(out[0:4], h[0])
	binary.BigEndian.PutUint32(out[4:8], h[1])
	binary.BigEndian.PutUint32(out[8:12], h[2])
	binary.BigEndian.PutUint32(out[12:16], h[3])
	binary.BigEndian.PutUint32(out[16:20], h[4])
	return out
}
