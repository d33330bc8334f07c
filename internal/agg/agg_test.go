package agg

import (
	"math/rand"
	"testing"

	"sae/internal/record"
)

// foldKeys is the reference: fold keys one at a time.
func foldKeys(keys []record.Key) Agg {
	var a Agg
	for _, k := range keys {
		a = a.Add(k)
	}
	return a
}

func TestMonoidLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randAgg := func() Agg {
		n := rng.Intn(5)
		keys := make([]record.Key, n)
		for i := range keys {
			keys[i] = record.Key(rng.Uint32())
		}
		return foldKeys(keys)
	}
	for trial := 0; trial < 1000; trial++ {
		a, b, c := randAgg(), randAgg(), randAgg()
		if got := a.Merge(Agg{}); got != a {
			t.Fatalf("right identity: %v.Merge(empty) = %v", a, got)
		}
		if got := (Agg{}).Merge(a); got != a {
			t.Fatalf("left identity: empty.Merge(%v) = %v", a, got)
		}
		if a.Merge(b) != b.Merge(a) {
			t.Fatalf("commutativity: %v vs %v", a.Merge(b), b.Merge(a))
		}
		if a.Merge(b).Merge(c) != a.Merge(b.Merge(c)) {
			t.Fatalf("associativity: %v vs %v", a.Merge(b).Merge(c), a.Merge(b.Merge(c)))
		}
	}
}

func TestFoldMatchesOfKey(t *testing.T) {
	keys := []record.Key{7, 3, 3, 9, 1}
	a := foldKeys(keys)
	want := Agg{Count: 5, Sum: 23, Min: 1, Max: 9}
	if a != want {
		t.Fatalf("fold = %v, want %v", a, want)
	}
	if got := OfKey(3, 2); got != (Agg{Count: 2, Sum: 6, Min: 3, Max: 3}) {
		t.Fatalf("OfKey(3,2) = %v", got)
	}
	if !OfKey(3, 0).Empty() {
		t.Fatal("OfKey(k,0) must be empty")
	}
}

func TestEncodingRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 1000; trial++ {
		a := Agg{
			Count: rng.Uint64(),
			Sum:   rng.Uint64(),
			Min:   record.Key(rng.Uint32()),
			Max:   record.Key(rng.Uint32()),
		}
		enc := a.AppendTo(nil)
		if len(enc) != Size {
			t.Fatalf("encoded %d bytes, want %d", len(enc), Size)
		}
		if back := FromBytes(enc); back != a {
			t.Fatalf("round trip: %v -> %v", a, back)
		}
	}
}

func TestNormalizeEmptyEncodesIdentically(t *testing.T) {
	// An empty aggregate reached via different merges must encode to the
	// same bytes after Normalize: tokens and wire frames compare bit for
	// bit.
	dirty := Agg{Count: 0, Sum: 0, Min: 42, Max: 7}
	if got, want := dirty.Normalize().AppendTo(nil), (Agg{}).AppendTo(nil); string(got) != string(want) {
		t.Fatalf("normalized empty encodings differ: %x vs %x", got, want)
	}
	if a := OfKey(5, 1); a.Normalize() != a {
		t.Fatal("Normalize must not disturb a non-empty aggregate")
	}
}

func TestTokenRoundTripAndVerify(t *testing.T) {
	q := record.Range{Lo: 10, Hi: 99}
	a := foldKeys([]record.Key{10, 50, 99})
	tok := TokenFor(q, a)

	enc := tok.AppendTo(nil)
	if len(enc) != TokenSize {
		t.Fatalf("token encoded %d bytes, want %d", len(enc), TokenSize)
	}
	back := TokenFromBytes(enc)
	if back != tok {
		t.Fatalf("token round trip: %v -> %v", tok, back)
	}
	if err := back.Verify(q, a); err != nil {
		t.Fatalf("honest verify: %v", err)
	}
}

func TestTokenVerifyRejectsTampering(t *testing.T) {
	q := record.Range{Lo: 10, Hi: 99}
	a := foldKeys([]record.Key{10, 50, 99})
	tok := TokenFor(q, a)

	// Wrong scalar against an honest token.
	bad := a
	bad.Sum++
	if err := tok.Verify(q, bad); err == nil {
		t.Fatal("inflated sum accepted")
	}
	// Honest scalar against a token whose aggregate was rewritten (tag no
	// longer binds).
	forged := tok
	forged.Agg.Count++
	if err := forged.Verify(q, forged.Agg); err == nil {
		t.Fatal("retagged-free forgery accepted")
	}
	// Token replayed for a different range.
	if err := tok.Verify(record.Range{Lo: 10, Hi: 100}, a); err == nil {
		t.Fatal("cross-range replay accepted")
	}
	// Empty-vs-normalized equivalence: a zero answer passes against an
	// empty token regardless of stale Min/Max bits.
	empty := TokenFor(q, Agg{})
	if err := empty.Verify(q, Agg{Min: 3, Max: 1}); err != nil {
		t.Fatalf("normalized empty answer rejected: %v", err)
	}
}

// TestTokenCheck: a token whose tag binds the range yields its own
// aggregate; a rewritten aggregate or another range yields an error.
func TestTokenCheck(t *testing.T) {
	q := record.Range{Lo: 10, Hi: 99}
	a := foldKeys([]record.Key{10, 50, 99})
	tok := TokenFor(q, a)
	if got, err := tok.Check(q); err != nil || got != a {
		t.Fatalf("honest check: %v, %v; want %v", got, err, a)
	}
	forged := tok
	forged.Agg.Sum++
	if _, err := forged.Check(q); err == nil {
		t.Fatal("aggregate rewritten without re-tagging accepted")
	}
	if _, err := tok.Check(record.Range{Lo: 10, Hi: 100}); err == nil {
		t.Fatal("cross-range replay accepted")
	}
}
