package replica

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sae/internal/record"
)

// TestMalformedSnapshotRefused hands NewFromSnapshot and Reset dumps that
// are not a valid SAECKP03 snapshot. Each must be refused: a replica built
// from records out of key order, or from one id twice, would serve a
// state no primary ever held. A refused Reset must leave the replica
// serving its previous state at its previous stamp.
func TestMalformedSnapshotRefused(t *testing.T) {
	sys, hub := newPrimary(t, 40, 0)
	if _, err := sys.InsertBatch([]record.Key{5, 6_000_000}); err != nil {
		t.Fatal(err)
	}
	rep := bootstrap(t, hub)
	var good bytes.Buffer
	if err := hub.WriteSnapshot(&good); err != nil {
		t.Fatal(err)
	}
	const hdr = 32 // magic, sequence, watermark, count
	rec := func(b []byte, i int) []byte { return b[hdr+i*record.Size : hdr+(i+1)*record.Size] }
	if record.WireKey(rec(good.Bytes(), 0)) == record.WireKey(rec(good.Bytes(), 1)) {
		t.Fatal("the first two records share a key; swapping them keeps key order")
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good.Bytes())) }
	for name, b := range map[string][]byte{
		"records out of key order": mutate(func(b []byte) []byte {
			r0, r1 := bytes.Clone(rec(b, 0)), rec(b, 1)
			copy(rec(b, 0), r1)
			copy(rec(b, 1), r0)
			return b
		}),
		"a repeated id": mutate(func(b []byte) []byte {
			copy(rec(b, 1)[:8], rec(b, 0)[:8])
			return b
		}),
		"a count that disagrees with the length": mutate(func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[24:hdr], binary.BigEndian.Uint64(b[24:hdr])+1)
			return b
		}),
		"a truncated record": mutate(func(b []byte) []byte { return b[:len(b)-1] }),
		"an SAECKP02 header": mutate(func(b []byte) []byte { copy(b, "SAECKP02"); return b }),
	} {
		if _, err := NewFromSnapshot(b); err == nil {
			t.Errorf("%s: NewFromSnapshot accepted the dump", name)
		}
		if err := rep.Reset(b); err == nil {
			t.Errorf("%s: Reset accepted the dump", name)
		}
		assertParity(t, sys, rep)
	}
}
