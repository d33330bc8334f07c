package bptree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"sae/internal/pagestore"
	"sae/internal/record"
)

func TestSequentialInserts(t *testing.T) {
	tree, err := New(pagestore.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	n := 3 * LeafCapacity
	for i := 0; i < n; i++ {
		if err := tree.Insert(Entry{Key: record.Key(i), RID: ridFor(i)}); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got, err := tree.Range(0, record.Key(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("Range returned %d, want %d", len(got), n)
	}
	for i, rid := range got {
		if rid != ridFor(i) {
			t.Fatalf("rid %d out of order", i)
		}
	}
}

func TestReverseInserts(t *testing.T) {
	tree, err := New(pagestore.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	n := 3 * LeafCapacity
	for i := n - 1; i >= 0; i-- {
		if err := tree.Insert(Entry{Key: record.Key(i), RID: ridFor(i)}); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got, err := tree.Range(0, record.Key(n))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("Range returned %d, want %d", len(got), n)
	}
}

func TestDeleteEverythingThenReinsert(t *testing.T) {
	entries := sortedEntries(make([]record.Key, 1000)) // all key 0, distinct rids
	for i := range entries {
		entries[i].Key = record.Key(i % 17)
	}
	sort.Slice(entries, func(i, j int) bool { return Compare(entries[i], entries[j]) < 0 })
	tree, err := Bulkload(pagestore.NewMem(), entries)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := tree.Delete(e); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	if tree.Count() != 0 {
		t.Fatalf("Count after full delete = %d", tree.Count())
	}
	got, err := tree.Range(0, record.KeyDomain)
	if err != nil || len(got) != 0 {
		t.Fatalf("Range after full delete = %d rids, err %v", len(got), err)
	}
	// The emptied (lazy-deleted) tree must still accept inserts.
	for i := 0; i < 500; i++ {
		if err := tree.Insert(Entry{Key: record.Key(i), RID: ridFor(10_000 + i)}); err != nil {
			t.Fatalf("reinsert: %v", err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after reinsert: %v", err)
	}
	got, err = tree.Range(0, record.KeyDomain)
	if err != nil || len(got) != 500 {
		t.Fatalf("Range after reinsert = %d rids, err %v", len(got), err)
	}
}

// TestRangeQuickProperty drives Range with testing/quick against a linear
// scan over a randomly built tree.
func TestRangeQuickProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	keys := make([]record.Key, 4000)
	for i := range keys {
		keys[i] = record.Key(rng.Intn(30_000))
	}
	entries := sortedEntries(keys)
	tree, err := Bulkload(pagestore.NewMem(), entries)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, b uint16) bool {
		lo, hi := record.Key(a), record.Key(a)+record.Key(b)
		got, err := tree.Range(lo, hi)
		if err != nil {
			return false
		}
		return sameRIDs(got, refRange(entries, lo, hi))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBulkloadExactCapacityBoundaries(t *testing.T) {
	// Cardinalities straddling leaf and two-level boundaries.
	for _, n := range []int{
		LeafCapacity - 1, LeafCapacity, LeafCapacity + 1,
		2 * LeafCapacity, LeafCapacity * (InnerCapacity + 1),
		LeafCapacity*(InnerCapacity+1) + 1,
	} {
		keys := make([]record.Key, n)
		for i := range keys {
			keys[i] = record.Key(i)
		}
		entries := sortedEntries(keys)
		tree, err := Bulkload(pagestore.NewMem(), entries)
		if err != nil {
			t.Fatalf("n=%d: Bulkload: %v", n, err)
		}
		if err := tree.Validate(); err != nil {
			t.Fatalf("n=%d: Validate: %v", n, err)
		}
		got, err := tree.Range(0, record.Key(n))
		if err != nil || len(got) != n {
			t.Fatalf("n=%d: Range = %d rids, err %v", n, len(got), err)
		}
	}
}
