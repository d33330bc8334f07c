// Package agg defines the (COUNT, SUM, MIN, MAX) aggregate annotation the
// authenticated-aggregation fast path stores in index internal nodes and
// ships over the wire.
//
// An Agg summarizes a multiset of search keys. It forms a commutative
// monoid under Merge, so per-subtree annotations compose bottom-up in the
// trees and per-shard partials compose left-to-right at the router/client:
// counts and sums add, mins and maxes take the extremum. The empty
// aggregate (Count == 0) is the identity.
//
// Aggregates are over the search key — the one numeric attribute every
// record carries — which is exactly what the paper's range machinery
// indexes; COUNT/SUM/AVG/MIN/MAX over any key range all derive from it
// (AVG = Sum/Count).
package agg

import (
	"encoding/binary"
	"fmt"

	"sae/internal/digest"
	"sae/internal/record"
)

// Size is the binary encoding size of an Agg: count 8, sum 8, min 4, max 4.
const Size = 24

// Agg is a (COUNT, SUM, MIN, MAX) summary of a multiset of search keys.
// The zero Agg is the empty aggregate; Min/Max are meaningful only when
// Count > 0.
type Agg struct {
	Count uint64
	Sum   uint64 // sum of keys; 2^32 keys of 2^32-1 still fit in 64 bits
	Min   record.Key
	Max   record.Key
}

// Empty reports whether the aggregate summarizes no keys.
func (a Agg) Empty() bool { return a.Count == 0 }

// OfKey returns the aggregate of n copies of key k (n == 0 is empty).
func OfKey(k record.Key, n uint64) Agg {
	if n == 0 {
		return Agg{}
	}
	return Agg{Count: n, Sum: n * uint64(k), Min: k, Max: k}
}

// Add folds one more copy of key k into a.
func (a Agg) Add(k record.Key) Agg { return a.Merge(OfKey(k, 1)) }

// Merge combines two aggregates over disjoint multisets.
func (a Agg) Merge(b Agg) Agg {
	if a.Count == 0 {
		return b
	}
	if b.Count == 0 {
		return a
	}
	out := Agg{Count: a.Count + b.Count, Sum: a.Sum + b.Sum, Min: a.Min, Max: a.Max}
	if b.Min < out.Min {
		out.Min = b.Min
	}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	return out
}

// AppendTo serializes a onto buf (Size bytes, big-endian).
func (a Agg) AppendTo(buf []byte) []byte {
	var b [Size]byte
	a.PutBytes(b[:])
	return append(buf, b[:]...)
}

// PutBytes writes the Size-byte encoding into buf.
func (a Agg) PutBytes(buf []byte) {
	binary.BigEndian.PutUint64(buf[0:8], a.Count)
	binary.BigEndian.PutUint64(buf[8:16], a.Sum)
	binary.BigEndian.PutUint32(buf[16:20], uint32(a.Min))
	binary.BigEndian.PutUint32(buf[20:24], uint32(a.Max))
}

// FromBytes decodes the Size-byte encoding.
func FromBytes(buf []byte) Agg {
	return Agg{
		Count: binary.BigEndian.Uint64(buf[0:8]),
		Sum:   binary.BigEndian.Uint64(buf[8:16]),
		Min:   record.Key(binary.BigEndian.Uint32(buf[16:20])),
		Max:   record.Key(binary.BigEndian.Uint32(buf[20:24])),
	}
}

// Normalize clears Min/Max on an empty aggregate so that any two encodings
// of "no keys" are bit-identical (decoders and mergers rely on Count, but
// tokens and wire frames compare bytes).
func (a Agg) Normalize() Agg {
	if a.Count == 0 {
		return Agg{}
	}
	return a
}

// String renders the aggregate for logs and errors.
func (a Agg) String() string {
	if a.Empty() {
		return "agg{empty}"
	}
	return fmt.Sprintf("agg{count=%d sum=%d min=%d max=%d}", a.Count, a.Sum, a.Min, a.Max)
}

// Token is the trusted entity's aggregate verification token: the
// aggregate it computed from its own annotated index, plus a tag binding
// the aggregate to the exact query range. A verified aggregate is the
// token alone: the client recomputes the tag and, if it binds the range,
// takes the token's aggregate as the answer. The trust argument is the
// range protocol's (the token travels the authenticated client↔TE path;
// see the README's "Verified aggregation" section).
type Token struct {
	Agg Agg
	Tag digest.Digest
}

// tagDomain domain-separates aggregate tags from every other digest use.
const tagDomain = "SAE-AGG-V1"

// TagFor computes the range-binding tag over (domain, q, a).
func TagFor(q record.Range, a Agg) digest.Digest {
	var b [len(tagDomain) + 8 + Size]byte
	copy(b[:], tagDomain)
	binary.BigEndian.PutUint32(b[len(tagDomain):], uint32(q.Lo))
	binary.BigEndian.PutUint32(b[len(tagDomain)+4:], uint32(q.Hi))
	a.Normalize().PutBytes(b[len(tagDomain)+8:])
	return digest.OfBytes(b[:])
}

// TokenFor builds the TE-side token for a query range.
func TokenFor(q record.Range, a Agg) Token {
	a = a.Normalize()
	return Token{Agg: a, Tag: TagFor(q, a)}
}

// TokenSize is the wire size of a Token.
const TokenSize = Size + digest.Size

// AppendTo serializes the token (aggregate, then tag).
func (t Token) AppendTo(buf []byte) []byte {
	buf = t.Agg.AppendTo(buf)
	return append(buf, t.Tag[:]...)
}

// TokenFromBytes decodes a serialized token.
func TokenFromBytes(buf []byte) Token {
	return Token{Agg: FromBytes(buf[:Size]), Tag: digest.FromBytes(buf[Size : Size+digest.Size])}
}

// Check returns the token's aggregate if its tag binds range q.
func (t Token) Check(q record.Range) (Agg, error) {
	a := t.Agg.Normalize()
	if t.Tag != TagFor(q, a) {
		return Agg{}, fmt.Errorf("agg: token tag does not bind range [%d, %d]", q.Lo, q.Hi)
	}
	return a, nil
}

// Verify checks a claimed scalar answer against the token for range q:
// the tag must bind (q, token aggregate) and the scalar must equal the
// token's aggregate bit for bit.
func (t Token) Verify(q record.Range, got Agg) error {
	a, err := t.Check(q)
	if err == nil && got.Normalize() != a {
		err = fmt.Errorf("agg: answer %v contradicts trusted token %v", got, a)
	}
	return err
}
