package mbtree

import (
	"math/rand"
	"sort"
	"testing"

	"sae/internal/digest"
	"sae/internal/heapfile"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/sigs"
)

// fixture bundles a built MB-Tree with its heap file, records and signer.
type fixture struct {
	tree    *Tree
	heap    *heapfile.File
	records []record.Record // sorted by key
	rids    []heapfile.RID
	signer  *sigs.Signer
	sig     []byte
}

func buildFixture(t testing.TB, n, domain int, seed int64) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	records := make([]record.Record, n)
	for i := range records {
		records[i] = record.Synthesize(record.ID(i+1), record.Key(rng.Intn(domain)))
	}
	sort.Slice(records, func(i, j int) bool { return record.SortByKey(records[i], records[j]) < 0 })

	store := pagestore.NewMem()
	heap, rids, err := heapfile.Build(store, records)
	if err != nil {
		t.Fatalf("heapfile.Build: %v", err)
	}
	entries := make([]Entry, n)
	for i := range records {
		entries[i] = Entry{Key: records[i].Key, RID: rids[i], Digest: digest.OfRecord(&records[i])}
	}
	sort.Slice(entries, func(i, j int) bool { return Compare(entries[i], entries[j]) < 0 })
	tree, err := Bulkload(store, entries)
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	signer, err := sigs.NewSigner()
	if err != nil {
		t.Fatalf("NewSigner: %v", err)
	}
	sig, err := signer.Sign(tree.RootDigest())
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	return &fixture{tree: tree, heap: heap, records: records, rids: rids, signer: signer, sig: sig}
}

// queryRef computes the expected result records for a range.
func (f *fixture) queryRef(lo, hi record.Key) []record.Record {
	var out []record.Record
	for i := range f.records {
		if f.records[i].Key >= lo && f.records[i].Key <= hi {
			out = append(out, f.records[i])
		}
	}
	return out
}

// runQuery executes RangeVO and fetches the result records like the SP does.
func (f *fixture) runQuery(t *testing.T, lo, hi record.Key) ([]record.Record, *VO) {
	t.Helper()
	rids, vo, err := f.tree.RangeVO(lo, hi, f.heap, f.sig)
	if err != nil {
		t.Fatalf("RangeVO(%d,%d): %v", lo, hi, err)
	}
	recs, err := f.heap.GetMany(rids)
	if err != nil {
		t.Fatalf("GetMany: %v", err)
	}
	return recs, vo
}

func TestBulkloadValidate(t *testing.T) {
	f := buildFixture(t, 3000, 50_000, 1)
	if err := f.tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if f.tree.Count() != 3000 {
		t.Fatalf("Count = %d, want 3000", f.tree.Count())
	}
}

func TestRangeMatchesReference(t *testing.T) {
	f := buildFixture(t, 2000, 20_000, 2)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		lo := record.Key(rng.Intn(20_000))
		hi := lo + record.Key(rng.Intn(2_000))
		rids, err := f.tree.Range(lo, hi)
		if err != nil {
			t.Fatalf("Range: %v", err)
		}
		if want := f.queryRef(lo, hi); len(rids) != len(want) {
			t.Fatalf("Range(%d,%d) = %d rids, want %d", lo, hi, len(rids), len(want))
		}
	}
}

func TestVOVerifiesHonestResults(t *testing.T) {
	f := buildFixture(t, 2000, 20_000, 4)
	rng := rand.New(rand.NewSource(5))
	ver := f.signer.Verifier()
	for trial := 0; trial < 40; trial++ {
		lo := record.Key(rng.Intn(20_000))
		hi := lo + record.Key(rng.Intn(2_000))
		recs, vo := f.runQuery(t, lo, hi)
		if want := f.queryRef(lo, hi); len(recs) != len(want) {
			t.Fatalf("result size %d, want %d", len(recs), len(want))
		}
		if err := VerifyVO(vo, recs, lo, hi, ver); err != nil {
			t.Fatalf("VerifyVO(%d,%d) rejected honest result: %v", lo, hi, err)
		}
	}
}

func TestVOBoundaryCases(t *testing.T) {
	f := buildFixture(t, 500, 10_000, 6)
	ver := f.signer.Verifier()
	minKey := f.records[0].Key
	maxKey := f.records[len(f.records)-1].Key
	cases := []struct {
		name   string
		lo, hi record.Key
	}{
		{"whole domain", 0, record.KeyDomain},
		{"prefix", 0, f.records[57].Key},
		{"suffix", f.records[400].Key, record.KeyDomain},
		{"empty below min", 0, minKey - 1},
		{"empty above max", maxKey + 1, record.KeyDomain},
		{"point on min", minKey, minKey},
		{"point on max", maxKey, maxKey},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, vo := f.runQuery(t, tc.lo, tc.hi)
			if want := f.queryRef(tc.lo, tc.hi); len(recs) != len(want) {
				t.Fatalf("result size %d, want %d", len(recs), len(want))
			}
			if err := VerifyVO(vo, recs, tc.lo, tc.hi, ver); err != nil {
				t.Fatalf("VerifyVO rejected honest result: %v", err)
			}
		})
	}
}

func TestVOEmptyGapBetweenKeys(t *testing.T) {
	// A query range falling strictly between two adjacent keys must verify
	// with zero results.
	f := buildFixture(t, 300, 1_000_000, 7)
	ver := f.signer.Verifier()
	var lo, hi record.Key
	found := false
	for i := 1; i < len(f.records); i++ {
		if f.records[i].Key > f.records[i-1].Key+2 {
			lo = f.records[i-1].Key + 1
			hi = f.records[i].Key - 1
			found = true
			break
		}
	}
	if !found {
		t.Skip("no gap in generated keys")
	}
	recs, vo := f.runQuery(t, lo, hi)
	if len(recs) != 0 {
		t.Fatalf("gap query returned %d records", len(recs))
	}
	if err := VerifyVO(vo, recs, lo, hi, ver); err != nil {
		t.Fatalf("VerifyVO rejected empty-but-complete result: %v", err)
	}
}

func TestVODetectsDroppedRecord(t *testing.T) {
	f := buildFixture(t, 1000, 10_000, 8)
	ver := f.signer.Verifier()
	lo, hi := record.Key(2000), record.Key(4000)
	recs, vo := f.runQuery(t, lo, hi)
	if len(recs) < 3 {
		t.Skip("result too small for the attack")
	}
	tampered := append(append([]record.Record{}, recs[:len(recs)/2]...), recs[len(recs)/2+1:]...)
	if err := VerifyVO(vo, tampered, lo, hi, ver); err == nil {
		t.Fatal("VerifyVO accepted a result with a dropped record")
	}
}

func TestVODetectsInjectedRecord(t *testing.T) {
	f := buildFixture(t, 1000, 10_000, 9)
	ver := f.signer.Verifier()
	lo, hi := record.Key(2000), record.Key(4000)
	recs, vo := f.runQuery(t, lo, hi)
	fake := record.Synthesize(999_999, (lo+hi)/2)
	tampered := append([]record.Record{}, recs...)
	tampered = append(tampered, fake)
	sort.Slice(tampered, func(i, j int) bool { return record.SortByKey(tampered[i], tampered[j]) < 0 })
	if err := VerifyVO(vo, tampered, lo, hi, ver); err == nil {
		t.Fatal("VerifyVO accepted a result with an injected record")
	}
}

func TestVODetectsModifiedRecord(t *testing.T) {
	f := buildFixture(t, 1000, 10_000, 10)
	ver := f.signer.Verifier()
	lo, hi := record.Key(2000), record.Key(4000)
	recs, vo := f.runQuery(t, lo, hi)
	if len(recs) == 0 {
		t.Skip("empty result")
	}
	tampered := append([]record.Record{}, recs...)
	tampered[0].Payload[0] ^= 0xFF
	if err := VerifyVO(vo, tampered, lo, hi, ver); err == nil {
		t.Fatal("VerifyVO accepted a modified record")
	}
}

func TestVODetectsDigestSubstitutionAttack(t *testing.T) {
	// A smarter SP drops result records and patches the VO with their
	// digests so the root still reconstructs. The completeness grammar
	// must reject digests inside the result span.
	f := buildFixture(t, 1000, 10_000, 11)
	ver := f.signer.Verifier()
	lo, hi := record.Key(2000), record.Key(4000)
	recs, vo := f.runQuery(t, lo, hi)
	if len(recs) < 3 {
		t.Skip("result too small for the attack")
	}
	// Drop the first record of the (single or first) result run and insert
	// its digest before the run.
	dropped := recs[0]
	tampered := recs[1:]
	patched := &VO{Sig: vo.Sig}
	fixedOne := false
	for _, tok := range vo.Tokens {
		if tok.Kind == TokResult && !fixedOne {
			patched.Tokens = append(patched.Tokens,
				Token{Kind: TokKeyDig, Key: dropped.Key, Digest: digest.OfRecord(&dropped)},
				Token{Kind: TokResult, Count: tok.Count - 1})
			fixedOne = true
			continue
		}
		patched.Tokens = append(patched.Tokens, tok)
	}
	if !fixedOne {
		t.Fatal("no result token found to patch")
	}
	if err := VerifyVO(patched, tampered, lo, hi, ver); err == nil {
		t.Fatal("VerifyVO accepted a digest-substitution omission attack")
	}
}

func TestVODetectsWrongSignature(t *testing.T) {
	f := buildFixture(t, 500, 10_000, 12)
	other, err := sigs.NewSigner()
	if err != nil {
		t.Fatalf("NewSigner: %v", err)
	}
	lo, hi := record.Key(1000), record.Key(3000)
	recs, vo := f.runQuery(t, lo, hi)
	if err := VerifyVO(vo, recs, lo, hi, other.Verifier()); err == nil {
		t.Fatal("VerifyVO accepted a VO under the wrong owner key")
	}
}

func TestVOSerializationRoundTrip(t *testing.T) {
	f := buildFixture(t, 800, 10_000, 13)
	ver := f.signer.Verifier()
	lo, hi := record.Key(100), record.Key(5000)
	recs, vo := f.runQuery(t, lo, hi)
	raw := vo.Marshal()
	if len(raw) != vo.Size() {
		t.Fatalf("Marshal length %d != Size() %d", len(raw), vo.Size())
	}
	back, err := UnmarshalVO(raw)
	if err != nil {
		t.Fatalf("UnmarshalVO: %v", err)
	}
	if err := VerifyVO(back, recs, lo, hi, ver); err != nil {
		t.Fatalf("round-tripped VO rejected: %v", err)
	}
}

func TestUnmarshalVOErrors(t *testing.T) {
	if _, err := UnmarshalVO([]byte{0}); err == nil {
		t.Fatal("UnmarshalVO accepted a truncated header")
	}
	if _, err := UnmarshalVO([]byte{0, 0, 99}); err == nil {
		t.Fatal("UnmarshalVO accepted an unknown token kind")
	}
	if _, err := UnmarshalVO([]byte{0, 0, byte(TokChild), 1, 2}); err == nil {
		t.Fatal("UnmarshalVO accepted a truncated child token")
	}
}

func TestInsertMaintainsDigests(t *testing.T) {
	f := buildFixture(t, 1000, 10_000, 14)
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 500; i++ {
		rec := record.Synthesize(record.ID(10_000+i), record.Key(rng.Intn(10_000)))
		rid, err := f.heap.Append(rec)
		if err != nil {
			t.Fatalf("heap.Append: %v", err)
		}
		e := Entry{Key: rec.Key, RID: rid, Digest: digest.OfRecord(&rec)}
		if err := f.tree.Insert(e); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		f.records = append(f.records, rec)
	}
	sort.Slice(f.records, func(i, j int) bool { return record.SortByKey(f.records[i], f.records[j]) < 0 })
	if err := f.tree.Validate(); err != nil {
		t.Fatalf("Validate after inserts: %v", err)
	}
	// Re-sign (the owner's job after updates) and verify a query.
	sig, err := f.signer.Sign(f.tree.RootDigest())
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	f.sig = sig
	recs, vo := f.runQuery(t, 2000, 5000)
	if err := VerifyVO(vo, recs, 2000, 5000, f.signer.Verifier()); err != nil {
		t.Fatalf("VerifyVO after inserts: %v", err)
	}
	if want := f.queryRef(2000, 5000); len(recs) != len(want) {
		t.Fatalf("result size %d, want %d", len(recs), len(want))
	}
}

func TestDeleteMaintainsDigests(t *testing.T) {
	f := buildFixture(t, 1500, 10_000, 16)
	// Delete every fourth record.
	var kept []record.Record
	for i := range f.records {
		if i%4 == 0 {
			e := Entry{Key: f.records[i].Key, RID: f.rids[i]}
			if err := f.tree.Delete(e); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if err := f.heap.Delete(f.rids[i]); err != nil {
				t.Fatalf("heap.Delete: %v", err)
			}
		} else {
			kept = append(kept, f.records[i])
		}
	}
	f.records = kept
	if err := f.tree.Validate(); err != nil {
		t.Fatalf("Validate after deletes: %v", err)
	}
	sig, err := f.signer.Sign(f.tree.RootDigest())
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	f.sig = sig
	recs, vo := f.runQuery(t, 0, record.KeyDomain)
	if err := VerifyVO(vo, recs, 0, record.KeyDomain, f.signer.Verifier()); err != nil {
		t.Fatalf("VerifyVO after deletes: %v", err)
	}
	if len(recs) != len(f.records) {
		t.Fatalf("result size %d, want %d", len(recs), len(f.records))
	}
}

func TestDeleteNotFound(t *testing.T) {
	f := buildFixture(t, 100, 1000, 17)
	err := f.tree.Delete(Entry{Key: 99999, RID: heapfile.RID{Page: 1, Slot: 1}})
	if err == nil {
		t.Fatal("Delete of absent entry succeeded")
	}
}

func TestCapacityConstants(t *testing.T) {
	// Fanout relation that drives the paper's Figure 6: the MB-Tree's
	// authenticated entries are larger — and now carry a 24-byte
	// (COUNT, SUM, MIN, MAX) annotation each — so its fanout must be
	// strictly below the plain B+-tree's (408 leaf / 106 inner).
	if LeafCapacity != 136 {
		t.Fatalf("LeafCapacity = %d, want 136", LeafCapacity)
	}
	if InnerCapacity != 69 {
		t.Fatalf("InnerCapacity = %d, want 69", InnerCapacity)
	}
}

func TestVOSizeGrowsWithResult(t *testing.T) {
	f := buildFixture(t, 4000, 40_000, 18)
	_, voSmall := f.runQuery(t, 1000, 1200)
	_, voLarge := f.runQuery(t, 1000, 20_000)
	if voSmall.Size() >= voLarge.Size() {
		t.Fatalf("VO sizes: small=%d large=%d; expected growth with range", voSmall.Size(), voLarge.Size())
	}
	// Both still carry at least the signature and two boundary records.
	if voSmall.Size() < sigs.SignatureSize+2*record.Size {
		t.Fatalf("VO suspiciously small: %d bytes", voSmall.Size())
	}
}

func TestVerifyRejectsResultOutOfRange(t *testing.T) {
	f := buildFixture(t, 500, 10_000, 19)
	ver := f.signer.Verifier()
	lo, hi := record.Key(1000), record.Key(4000)
	recs, vo := f.runQuery(t, lo, hi)
	if len(recs) == 0 {
		t.Skip("empty result")
	}
	// Claim a narrower range than the VO was built for: records now fall
	// outside it and must be rejected.
	if err := VerifyVO(vo, recs, lo+500, hi-500, ver); err == nil {
		t.Fatal("VerifyVO accepted out-of-range result records")
	}
}
