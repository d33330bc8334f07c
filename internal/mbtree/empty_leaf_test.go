package mbtree

import (
	"testing"

	"sae/internal/record"
)

// TestVOAcrossEmptiedLeaves empties entire leaves via lazy deletion, then
// queries ranges whose boundaries fall inside or beside the holes. findPred
// and findSucc must skip the empty leaves and the VO must still verify.
func TestVOAcrossEmptiedLeaves(t *testing.T) {
	f := buildFixture(t, 3*LeafCapacity, 1_000_000, 70)
	ver := f.signer.Verifier()

	// Delete the middle third of the key space — guaranteed to cover at
	// least one whole leaf.
	var remaining []record.Record
	for i, r := range f.records {
		if i >= LeafCapacity && i < 2*LeafCapacity {
			if err := f.tree.DeleteCtx(nil, Entry{Key: r.Key, RID: f.rids[i]}); err != nil {
				t.Fatalf("Delete: %v", err)
			}
		} else {
			remaining = append(remaining, r)
		}
	}
	sig, err := f.signer.Sign(f.tree.RootDigest())
	if err != nil {
		t.Fatal(err)
	}
	f.sig = sig
	deletedLo := f.records[LeafCapacity].Key
	deletedHi := f.records[2*LeafCapacity-1].Key
	f.records = remaining

	cases := []struct {
		name   string
		lo, hi record.Key
	}{
		{"inside the hole", deletedLo + 1, deletedHi - 1},
		{"straddling hole start", deletedLo - 1000, deletedLo + 1000},
		{"straddling hole end", deletedHi - 1000, deletedHi + 1000},
		{"covering the hole", deletedLo - 5000, deletedHi + 5000},
		{"whole domain", 0, record.KeyDomain},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.lo > tc.hi {
				t.Skip("degenerate range for this dataset")
			}
			recs, vo := f.runQuery(t, tc.lo, tc.hi)
			if want := f.queryRef(tc.lo, tc.hi); len(recs) != len(want) {
				t.Fatalf("result size %d, want %d", len(recs), len(want))
			}
			if err := VerifyVO(vo, recs, tc.lo, tc.hi, ver); err != nil {
				t.Fatalf("VerifyVO: %v", err)
			}
		})
	}
}
