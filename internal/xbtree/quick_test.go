package xbtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sae/internal/pagestore"
	"sae/internal/record"
)

// TestGenerateVTQuickProperty drives GenerateVT with testing/quick over a
// randomized tree built by interleaved inserts: for arbitrary (lo, width)
// the token must equal the brute-force XOR.
func TestGenerateVTQuickProperty(t *testing.T) {
	tree, err := New(pagestore.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference()
	rng := rand.New(rand.NewSource(123))
	const domain = 20_000
	for i := 0; i < 4000; i++ {
		k := record.Key(rng.Intn(domain))
		tup := tupleFor(record.ID(i + 1))
		if err := tree.Insert(k, tup); err != nil {
			t.Fatal(err)
		}
		ref.insert(k, tup)
	}
	prop := func(a uint16, w uint16) bool {
		lo := record.Key(a) % domain
		hi := lo + record.Key(w)
		got, err := tree.GenerateVT(lo, hi)
		if err != nil {
			return false
		}
		return got == ref.vt(lo, hi)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertDeleteQuickProperty checks that an arbitrary insert-then-delete
// of the same tuple leaves every token unchanged (XOR self-inverse at the
// system level).
func TestInsertDeleteQuickProperty(t *testing.T) {
	ref := populate(800, 5000, 124)
	tree, err := Bulkload(pagestore.NewMem(), ref.bulkItems())
	if err != nil {
		t.Fatal(err)
	}
	nextID := record.ID(1_000_000)
	prop := func(a uint16, w uint8) bool {
		k := record.Key(a) % 5000
		lo := k - record.Key(w)%k1(k)
		hi := k + record.Key(w)
		before, err := tree.GenerateVT(lo, hi)
		if err != nil {
			return false
		}
		tup := tupleFor(nextID)
		nextID++
		if err := tree.Insert(k, tup); err != nil {
			return false
		}
		if err := tree.Delete(k, tup.ID); err != nil {
			return false
		}
		after, err := tree.GenerateVT(lo, hi)
		if err != nil {
			return false
		}
		return before == after
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after quick churn: %v", err)
	}
}

// k1 avoids division/modulo by zero for keys at the domain edge.
func k1(k record.Key) record.Key {
	if k == 0 {
		return 1
	}
	return k
}
