package mbtree

import (
	"math/rand"
	"testing"

	"sae/internal/agg"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/record"
)

// refAgg computes the expected aggregate by brute force over the fixture's
// sorted records.
func refAgg(f *fixture, lo, hi record.Key) agg.Agg {
	var a agg.Agg
	for i := range f.records {
		if f.records[i].Key >= lo && f.records[i].Key <= hi {
			a = a.Add(f.records[i].Key)
		}
	}
	return a
}

func TestAggregateParityBulkload(t *testing.T) {
	f := buildFixture(t, 5000, 50_000, 41)
	if err := f.tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		lo := record.Key(rng.Intn(50_000))
		hi := lo + record.Key(rng.Intn(12_000))
		got, err := f.tree.AggregateCtx(nil, lo, hi)
		if err != nil {
			t.Fatalf("Aggregate(%d,%d): %v", lo, hi, err)
		}
		if want := refAgg(f, lo, hi); got.Normalize() != want.Normalize() {
			t.Fatalf("Aggregate(%d,%d) = %v, want %v", lo, hi, got, want)
		}
	}
	got, err := f.tree.AggregateCtx(nil, 0, record.KeyDomain)
	if err != nil {
		t.Fatalf("Aggregate full: %v", err)
	}
	if want := refAgg(f, 0, record.KeyDomain); got.Normalize() != want.Normalize() {
		t.Fatalf("full aggregate = %v, want %v", got, want)
	}
	if got, _ := f.tree.AggregateCtx(nil, 9, 3); !got.Empty() {
		t.Fatalf("inverted range aggregate = %v, want empty", got)
	}
}

func TestAggregateMaintenanceRandomized(t *testing.T) {
	f := buildFixture(t, 1000, 10_000, 43)
	rng := rand.New(rand.NewSource(44))
	live := make([]int, len(f.records)) // indexes into records/rids still live
	for i := range live {
		live[i] = i
	}
	nextID := record.ID(100_000)
	for step := 0; step < 1500; step++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			rec := record.Synthesize(nextID, record.Key(rng.Intn(10_000)))
			nextID++
			rid, err := f.heap.Append(rec)
			if err != nil {
				t.Fatalf("heap.Append: %v", err)
			}
			if err := f.tree.InsertCtx(nil, Entry{Key: rec.Key, RID: rid, Digest: digest.OfRecord(&rec)}); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			f.records = append(f.records, rec)
			f.rids = append(f.rids, rid)
			live = append(live, len(f.records)-1)
		} else {
			j := rng.Intn(len(live))
			i := live[j]
			if err := f.tree.DeleteCtx(nil, Entry{Key: f.records[i].Key, RID: f.rids[i]}); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			f.records[i].Key = record.KeyDomain + 1 // exclude from refAgg
			live = append(live[:j], live[j+1:]...)
		}
	}
	if err := f.tree.Validate(); err != nil {
		t.Fatalf("Validate after workload: %v", err)
	}
	for trial := 0; trial < 120; trial++ {
		lo := record.Key(rng.Intn(10_000))
		hi := lo + record.Key(rng.Intn(2_500))
		got, err := f.tree.AggregateCtx(nil, lo, hi)
		if err != nil {
			t.Fatalf("Aggregate(%d,%d): %v", lo, hi, err)
		}
		if want := refAgg(f, lo, hi); got.Normalize() != want.Normalize() {
			t.Fatalf("Aggregate(%d,%d) = %v, want %v", lo, hi, got, want)
		}
	}
}

// TestAggregateTouchesLogNodes pins the perf claim: the annotated descent
// reads O(log n) pages where the equivalent range scan reads O(result).
func TestAggregateTouchesLogNodes(t *testing.T) {
	f := buildFixture(t, 50_000, 1_000_000, 45)
	lo, hi := record.Key(400_000), record.Key(600_000)

	aggCtx := exec.NewContext()
	got, err := f.tree.AggregateCtx(aggCtx, lo, hi)
	if err != nil {
		t.Fatalf("AggregateCtx: %v", err)
	}
	if want := refAgg(f, lo, hi); got.Normalize() != want.Normalize() {
		t.Fatalf("aggregate = %v, want %v", got, want)
	}
	scanCtx := exec.NewContext()
	if _, err := f.tree.RangeAppendCtx(scanCtx, lo, hi, nil); err != nil {
		t.Fatalf("RangeCtx: %v", err)
	}
	aggReads := aggCtx.Stats().Reads
	scanReads := scanCtx.Stats().Reads
	if maxReads := int64(2 * f.tree.Height()); aggReads > maxReads {
		t.Fatalf("aggregate read %d pages, want <= 2*height = %d", aggReads, maxReads)
	}
	if aggReads >= scanReads {
		t.Fatalf("aggregate read %d pages, scan read %d; expected far fewer", aggReads, scanReads)
	}
}

func TestAggVOHonestVerifies(t *testing.T) {
	f := buildFixture(t, 4000, 40_000, 46)
	ver := f.signer.Verifier()
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 80; trial++ {
		lo := record.Key(rng.Intn(40_000))
		hi := lo + record.Key(rng.Intn(10_000))
		vo, err := f.tree.AggVOCtx(nil, lo, hi, f.sig)
		if err != nil {
			t.Fatalf("AggVO(%d,%d): %v", lo, hi, err)
		}
		got, err := VerifyAggVO(vo, lo, hi, ver)
		if err != nil {
			t.Fatalf("VerifyAggVO(%d,%d) rejected honest VO: %v", lo, hi, err)
		}
		if want := refAgg(f, lo, hi); got.Normalize() != want.Normalize() {
			t.Fatalf("verified aggregate (%d,%d) = %v, want %v", lo, hi, got, want)
		}
		// Serialization round trip preserves the proof.
		back, err := UnmarshalVO(vo.Marshal())
		if err != nil {
			t.Fatalf("UnmarshalVO: %v", err)
		}
		got2, err := VerifyAggVO(back, lo, hi, ver)
		if err != nil {
			t.Fatalf("round-tripped agg VO rejected: %v", err)
		}
		if got2 != got {
			t.Fatalf("round trip changed aggregate: %v != %v", got2, got)
		}
	}
}

// TestAggVOSmallerThanRangeVO pins the communication win: the aggregate VO
// must be a small fraction of the verified-scan response for a large range.
func TestAggVOSmallerThanRangeVO(t *testing.T) {
	f := buildFixture(t, 20_000, 200_000, 48)
	lo, hi := record.Key(50_000), record.Key(150_000)
	aggVO, err := f.tree.AggVOCtx(nil, lo, hi, f.sig)
	if err != nil {
		t.Fatalf("AggVO: %v", err)
	}
	recs, rangeVO := f.runQuery(t, lo, hi)
	scanBytes := rangeVO.Size() + len(recs)*record.Size
	if aggVO.Size()*100 > scanBytes {
		t.Fatalf("agg VO %d bytes vs scan response %d bytes; want >=100x smaller", aggVO.Size(), scanBytes)
	}
}

// TestAggVOTamperedAnnotationRejected covers the headline attack: the SP
// inflates a pruned child's annotation to forge the aggregate. The parent
// digest binds the annotation, so the replayed root cannot match the
// signature.
func TestAggVOTamperedAnnotationRejected(t *testing.T) {
	f := buildFixture(t, 4000, 40_000, 49)
	ver := f.signer.Verifier()
	lo, hi := record.Key(10_000), record.Key(30_000)
	vo, err := f.tree.AggVOCtx(nil, lo, hi, f.sig)
	if err != nil {
		t.Fatalf("AggVO: %v", err)
	}
	tampered := 0
	for i := range vo.Tokens {
		if vo.Tokens[i].Kind == TokChild {
			vo.Tokens[i].Agg.Count += 1000
			vo.Tokens[i].Agg.Sum += 5_000_000
			tampered++
			break
		}
	}
	if tampered == 0 {
		t.Skip("no pruned child in this VO")
	}
	if _, err := VerifyAggVO(vo, lo, hi, ver); err == nil {
		t.Fatal("VerifyAggVO accepted a tampered annotation")
	}
}

// TestAggVOFrontierSubstitutionRejected swaps one frontier child's digest
// for another's (keeping the stream well-formed): the reconstructed root
// changes, so the signature check must fail.
func TestAggVOFrontierSubstitutionRejected(t *testing.T) {
	f := buildFixture(t, 4000, 40_000, 50)
	ver := f.signer.Verifier()
	lo, hi := record.Key(10_000), record.Key(30_000)
	vo, err := f.tree.AggVOCtx(nil, lo, hi, f.sig)
	if err != nil {
		t.Fatalf("AggVO: %v", err)
	}
	var childIdx []int
	for i := range vo.Tokens {
		if vo.Tokens[i].Kind == TokChild {
			childIdx = append(childIdx, i)
		}
	}
	if len(childIdx) < 2 {
		t.Skip("not enough pruned children to swap")
	}
	a, b := childIdx[0], childIdx[len(childIdx)-1]
	vo.Tokens[a].Digest, vo.Tokens[b].Digest = vo.Tokens[b].Digest, vo.Tokens[a].Digest
	vo.Tokens[a].Agg, vo.Tokens[b].Agg = vo.Tokens[b].Agg, vo.Tokens[a].Agg
	if _, err := VerifyAggVO(vo, lo, hi, ver); err == nil {
		t.Fatal("VerifyAggVO accepted substituted frontier children")
	}
}

// TestAggVOPrunedStraddlerRejected hand-patches an expanded straddling
// child into a pruned one with a consistent digest: the classification
// check (not the signature) must reject, since a straddler's annotation
// cannot be proven in- or out-of-range.
func TestAggVOPrunedStraddlerRejected(t *testing.T) {
	f := buildFixture(t, 4000, 40_000, 51)
	ver := f.signer.Verifier()
	lo, hi := record.Key(10_000), record.Key(30_000)
	vo, err := f.tree.AggVOCtx(nil, lo, hi, f.sig)
	if err != nil {
		t.Fatalf("AggVO: %v", err)
	}
	// Find an Expand token whose nested node is a leaf (a frontier
	// straddler) and replace [Expand, LeafBegin, ..., NodeEnd] with a
	// Child token carrying the leaf's true digest and annotation — the
	// digest replay stays consistent, only the classification differs.
	patched := &VO{Sig: vo.Sig}
	done := false
	for i := 0; i < len(vo.Tokens); i++ {
		tok := vo.Tokens[i]
		if !done && tok.Kind == TokExpand && i+1 < len(vo.Tokens) && vo.Tokens[i+1].Kind == TokLeafBegin {
			w := digest.NewConcatWriter()
			j := i + 2
			for ; vo.Tokens[j].Kind != TokNodeEnd; j++ {
				writeKeyTo(w, vo.Tokens[j].Key)
				w.Add(vo.Tokens[j].Digest)
			}
			patched.Tokens = append(patched.Tokens, Token{Kind: TokChild, Digest: w.Sum(), Agg: tok.Agg})
			i = j
			done = true
			continue
		}
		patched.Tokens = append(patched.Tokens, tok)
	}
	if !done {
		t.Skip("no expanded frontier leaf in this VO")
	}
	if _, err := VerifyAggVO(patched, lo, hi, ver); err == nil {
		t.Fatal("VerifyAggVO accepted a pruned straddling child")
	}
}

// TestAggVOWrongRangeRejected: a VO built for one range must not verify a
// different range (the frontier leaves won't match the claimed bounds).
func TestAggVOWrongRangeRejected(t *testing.T) {
	f := buildFixture(t, 4000, 40_000, 52)
	ver := f.signer.Verifier()
	vo, err := f.tree.AggVOCtx(nil, 10_000, 30_000, f.sig)
	if err != nil {
		t.Fatalf("AggVO: %v", err)
	}
	// A much wider range turns proven-outside children into straddlers.
	if got, err := VerifyAggVO(vo, 0, record.KeyDomain, ver); err == nil {
		if want := refAgg(f, 0, record.KeyDomain); got.Normalize() != want.Normalize() {
			t.Fatal("VerifyAggVO returned a wrong aggregate for a different range")
		}
	}
}

// TestAggVOCorruptionAlwaysRejected: any single-bit corruption of a
// serialized aggregate VO must fail parsing or verification — or leave the
// proven aggregate unchanged — never return a different aggregate.
func TestAggVOCorruptionAlwaysRejected(t *testing.T) {
	f := buildFixture(t, 1000, 10_000, 53)
	ver := f.signer.Verifier()
	lo, hi := record.Key(2_000), record.Key(8_000)
	vo, err := f.tree.AggVOCtx(nil, lo, hi, f.sig)
	if err != nil {
		t.Fatalf("AggVO: %v", err)
	}
	want, err := VerifyAggVO(vo, lo, hi, ver)
	if err != nil {
		t.Fatalf("honest baseline rejected: %v", err)
	}
	raw := vo.Marshal()
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 300; trial++ {
		corrupt := append([]byte(nil), raw...)
		pos := rng.Intn(len(corrupt))
		bit := byte(1 << rng.Intn(8))
		corrupt[pos] ^= bit
		parsed, err := UnmarshalVO(corrupt)
		if err != nil {
			continue // parse-level rejection is fine
		}
		got, err := VerifyAggVO(parsed, lo, hi, ver)
		if err != nil {
			continue // verify-level rejection is fine
		}
		if got != want {
			t.Fatalf("corruption at byte %d bit %02x changed the verified aggregate", pos, bit)
		}
	}
}
