package mbtree

import (
	"bytes"
	"testing"

	"sae/internal/record"
)

// FuzzUnmarshalVO feeds arbitrary bytes through the VO parser. UnmarshalVO
// parses bytes a malicious provider fully controls, so it must never
// panic, and anything it accepts must re-marshal to a fixed point: the
// bytes of a re-parsed VO marshal back to themselves. Run with
// `go test -fuzz=FuzzUnmarshalVO ./internal/mbtree` for live fuzzing;
// under plain `go test` the seed corpus below is exercised: hand-built
// token streams, then real range and aggregate VOs built by the tree.
func FuzzUnmarshalVO(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, byte(TokLeafBegin), byte(TokNodeEnd)})
	f.Add([]byte{0, 4, 1, 2, 3, 4, byte(TokChild)})
	f.Add([]byte{0, 0, byte(TokResult), 0, 0, 0, 1})
	f.Add([]byte{0xFF, 0xFF})
	// A tiny valid-ish VO: empty sig, leaf with one pruned entry.
	valid := []byte{0, 0, byte(TokLeafBegin), byte(TokKeyDig)}
	valid = append(valid, make([]byte, 24)...)
	valid = append(valid, byte(TokNodeEnd))
	f.Add(valid)
	// An internal node: child, separator, child.
	inner := []byte{0, 0, byte(TokInnerBegin), byte(TokChild)}
	inner = append(inner, make([]byte, 44)...)
	inner = append(inner, byte(TokSep), 0, 0, 0, 9, byte(TokChild))
	inner = append(inner, make([]byte, 44)...)
	inner = append(inner, byte(TokNodeEnd))
	f.Add(inner)
	fx := buildFixture(f, 400, 20_000, 19)
	for _, q := range []record.Range{{Lo: 1_000, Hi: 1_100}, {Lo: 7_000, Hi: 9_000}, {Lo: 0, Hi: 20_000}} {
		_, vo, err := fx.tree.RangeVO(q.Lo, q.Hi, fx.heap, fx.sig)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(vo.Marshal())
		avo, err := fx.tree.AggVO(q.Lo, q.Hi, fx.sig)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(avo.Marshal())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		vo, err := UnmarshalVO(data)
		if err != nil {
			return
		}
		enc := vo.Marshal()
		back, err := UnmarshalVO(enc)
		if err != nil {
			t.Fatalf("re-unmarshal of a marshaled VO: %v", err)
		}
		if !bytes.Equal(back.Marshal(), enc) {
			t.Fatal("VO marshal round-trip is not a fixed point")
		}
	})
}
