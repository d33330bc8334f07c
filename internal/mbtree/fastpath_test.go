package mbtree

import (
	"bytes"
	"math/rand"
	"testing"

	"sae/internal/record"
)

// TestVOAppendToMatchesMarshal proves the scatter-append encoder emits
// byte-identical VOs, including when appending behind existing bytes.
func TestVOAppendToMatchesMarshal(t *testing.T) {
	f := buildFixture(t, 1500, 20_000, 21)
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		lo := record.Key(rng.Intn(20_000))
		hi := lo + record.Key(rng.Intn(3_000))
		_, vo, err := f.tree.RangeVOCtx(nil, lo, hi, f.heap, f.sig)
		if err != nil {
			t.Fatalf("RangeVO: %v", err)
		}
		want := vo.Marshal()
		prefix := []byte("prefix")
		got := vo.AppendTo(append([]byte{}, prefix...))
		if !bytes.HasPrefix(got, prefix) {
			t.Fatal("AppendTo clobbered existing bytes")
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendTo bytes differ from Marshal at trial %d", trial)
		}
		if vo.Size() != len(want) {
			t.Fatalf("Size() = %d, encoded %d bytes", vo.Size(), len(want))
		}
	}
}

// TestUnmarshalVOPresized proves the counting pre-pass sizes Tokens
// exactly (no spare growth capacity) and round-trips unchanged.
func TestUnmarshalVOPresized(t *testing.T) {
	f := buildFixture(t, 2000, 20_000, 25)
	_, vo, err := f.tree.RangeVOCtx(nil, 2_000, 9_000, f.heap, f.sig)
	if err != nil {
		t.Fatalf("RangeVO: %v", err)
	}
	enc := vo.Marshal()
	dec, err := UnmarshalVO(enc)
	if err != nil {
		t.Fatalf("UnmarshalVO: %v", err)
	}
	if len(dec.Tokens) != len(vo.Tokens) {
		t.Fatalf("decoded %d tokens, want %d", len(dec.Tokens), len(vo.Tokens))
	}
	if cap(dec.Tokens) != len(dec.Tokens) {
		t.Fatalf("token slice over-allocated: cap %d for %d tokens", cap(dec.Tokens), len(dec.Tokens))
	}
	if !bytes.Equal(dec.Marshal(), enc) {
		t.Fatal("decode/re-encode round trip changed bytes")
	}
}

// BenchmarkUnmarshalVO measures the counting pre-pass win: tokens embed
// ~520-byte records, so growing the slice by doubling used to copy far
// more than the VO's own size.
func BenchmarkUnmarshalVO(b *testing.B) {
	// Build a token-heavy VO directly: many digest tokens plus records.
	var vo VO
	vo.Sig = make([]byte, 128)
	for i := 0; i < 600; i++ {
		switch i % 12 {
		case 0:
			vo.Tokens = append(vo.Tokens, Token{Kind: TokLeafBegin})
		case 11:
			vo.Tokens = append(vo.Tokens, Token{Kind: TokNodeEnd})
		case 5:
			r := record.Synthesize(record.ID(i), record.Key(i))
			vo.Tokens = append(vo.Tokens, Token{Kind: TokRecord, Record: r})
		case 7:
			vo.Tokens = append(vo.Tokens, Token{Kind: TokResult, Count: 8})
		default:
			vo.Tokens = append(vo.Tokens, Token{Kind: TokKeyDig, Key: record.Key(i)})
		}
	}
	// Balance node begin/end for well-formedness of the byte stream (the
	// decoder does not validate nesting, but keep it tidy).
	enc := vo.Marshal()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalVO(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnmarshalVOGrow is the before: the same decode loop growing
// the token slice per append, as UnmarshalVO did before the counting
// pre-pass. Kept as the comparison baseline for the pre-size win.
func BenchmarkUnmarshalVOGrow(b *testing.B) {
	var vo VO
	vo.Sig = make([]byte, 128)
	for i := 0; i < 600; i++ {
		switch i % 12 {
		case 0:
			vo.Tokens = append(vo.Tokens, Token{Kind: TokLeafBegin})
		case 11:
			vo.Tokens = append(vo.Tokens, Token{Kind: TokNodeEnd})
		case 5:
			r := record.Synthesize(record.ID(i), record.Key(i))
			vo.Tokens = append(vo.Tokens, Token{Kind: TokRecord, Record: r})
		case 7:
			vo.Tokens = append(vo.Tokens, Token{Kind: TokResult, Count: 8})
		default:
			vo.Tokens = append(vo.Tokens, Token{Kind: TokKeyDig, Key: record.Key(i)})
		}
	}
	enc := vo.Marshal()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := unmarshalVOGrowing(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// unmarshalVOGrowing replicates the pre-PR UnmarshalVO: no counting
// pre-pass, append-with-doubling token slice.
func unmarshalVOGrowing(b []byte) (*VO, error) {
	if len(b) < 2 {
		return nil, ErrBadVO
	}
	sigLen := int(uint16(b[0])<<8 | uint16(b[1]))
	b = b[2:]
	if len(b) < sigLen {
		return nil, ErrBadVO
	}
	vo := &VO{Sig: append([]byte(nil), b[:sigLen]...)}
	b = b[sigLen:]
	for len(b) > 0 {
		kind := TokenKind(b[0])
		b = b[1:]
		switch kind {
		case TokKeyDig:
			var t Token
			t.Kind = TokKeyDig
			t.Key = record.Key(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
			copy(t.Digest[:], b[4:24])
			vo.Tokens = append(vo.Tokens, t)
			b = b[24:]
		case TokRecord:
			r, err := record.Unmarshal(b)
			if err != nil {
				return nil, err
			}
			vo.Tokens = append(vo.Tokens, Token{Kind: TokRecord, Record: r})
			b = b[record.Size:]
		case TokResult:
			n := int(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]))
			vo.Tokens = append(vo.Tokens, Token{Kind: TokResult, Count: n})
			b = b[4:]
		case TokLeafBegin, TokNodeEnd:
			vo.Tokens = append(vo.Tokens, Token{Kind: kind})
		default:
			return nil, ErrBadVO
		}
	}
	return vo, nil
}
