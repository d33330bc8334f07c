package bptree

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"sae/internal/heapfile"
	"sae/internal/pagestore"
	"sae/internal/record"
)

// ridFor fabricates a unique RID per ordinal so entries are distinguishable.
func ridFor(i int) heapfile.RID {
	return heapfile.RID{Page: pagestore.PageID(i / 8), Slot: uint16(i % 8)}
}

func sortedEntries(keys []record.Key) []Entry {
	entries := make([]Entry, len(keys))
	for i, k := range keys {
		entries[i] = Entry{Key: k, RID: ridFor(i)}
	}
	sort.Slice(entries, func(i, j int) bool { return Compare(entries[i], entries[j]) < 0 })
	return entries
}

// refRange computes the expected RIDs with a linear scan.
func refRange(entries []Entry, lo, hi record.Key) []heapfile.RID {
	var out []heapfile.RID
	for _, e := range entries {
		if e.Key >= lo && e.Key <= hi {
			out = append(out, e.RID)
		}
	}
	return out
}

func sameRIDs(a, b []heapfile.RID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBulkloadAndRange(t *testing.T) {
	keys := make([]record.Key, 5000)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = record.Key(rng.Intn(100_000))
	}
	entries := sortedEntries(keys)
	tree, err := Bulkload(pagestore.NewMem(), entries)
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tree.Count() != len(entries) {
		t.Fatalf("Count = %d, want %d", tree.Count(), len(entries))
	}
	for trial := 0; trial < 50; trial++ {
		lo := record.Key(rng.Intn(100_000))
		hi := lo + record.Key(rng.Intn(5_000))
		got, err := tree.RangeAppendCtx(nil, lo, hi, nil)
		if err != nil {
			t.Fatalf("Range(%d,%d): %v", lo, hi, err)
		}
		if want := refRange(entries, lo, hi); !sameRIDs(got, want) {
			t.Fatalf("Range(%d,%d) = %d rids, want %d", lo, hi, len(got), len(want))
		}
	}
}

func TestBulkloadRejectsUnsorted(t *testing.T) {
	entries := []Entry{{Key: 5, RID: ridFor(0)}, {Key: 1, RID: ridFor(1)}}
	if _, err := Bulkload(pagestore.NewMem(), entries); err == nil {
		t.Fatal("Bulkload accepted unsorted input")
	}
}

// TestBulkloadRejectsDuplicateEntry: a repeated (key, RID) entry would
// build a tree its own Validate rejects, and from which DeleteCtx removes
// only one copy, so the loader requires strictly ascending input.
func TestBulkloadRejectsDuplicateEntry(t *testing.T) {
	e := Entry{Key: 7, RID: ridFor(3)}
	for _, entries := range [][]Entry{
		{e, e},
		{{Key: 1, RID: ridFor(0)}, e, e, {Key: 9, RID: ridFor(4)}},
	} {
		if _, err := Bulkload(pagestore.NewMem(), entries); err == nil {
			t.Fatalf("Bulkload accepted a repeated entry in %v", entries)
		}
	}
	// Equal keys with distinct RIDs are distinct entries.
	if _, err := Bulkload(pagestore.NewMem(), []Entry{e, {Key: 7, RID: ridFor(4)}}); err != nil {
		t.Fatalf("Bulkload rejected duplicate keys with distinct RIDs: %v", err)
	}
}

func TestBulkloadEmpty(t *testing.T) {
	tree, err := Bulkload(pagestore.NewMem(), nil)
	if err != nil {
		t.Fatalf("Bulkload(nil): %v", err)
	}
	got, err := tree.RangeAppendCtx(nil, 0, record.KeyDomain, nil)
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty tree returned %d rids", len(got))
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestInsertIncremental(t *testing.T) {
	tree, err := New(pagestore.NewMem())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(2))
	var entries []Entry
	for i := 0; i < 3000; i++ {
		e := Entry{Key: record.Key(rng.Intn(10_000)), RID: ridFor(i)}
		entries = append(entries, e)
		if err := tree.InsertCtx(nil, e, struct{}{}); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after inserts: %v", err)
	}
	sort.Slice(entries, func(i, j int) bool { return Compare(entries[i], entries[j]) < 0 })
	for trial := 0; trial < 30; trial++ {
		lo := record.Key(rng.Intn(10_000))
		hi := lo + record.Key(rng.Intn(1_000))
		got, err := tree.RangeAppendCtx(nil, lo, hi, nil)
		if err != nil {
			t.Fatalf("Range: %v", err)
		}
		if want := refRange(entries, lo, hi); !sameRIDs(got, want) {
			t.Fatalf("Range(%d,%d) mismatch after inserts", lo, hi)
		}
	}
	if tree.Height() < 2 {
		t.Fatalf("tree with 3000 entries should have split; height = %d", tree.Height())
	}
}

func TestInsertDuplicateKeys(t *testing.T) {
	tree, err := New(pagestore.NewMem())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Enough duplicates of one key to force splits within the run.
	const dups = 2 * LeafCapacity
	for i := 0; i < dups; i++ {
		if err := tree.InsertCtx(nil, Entry{Key: 42, RID: ridFor(i)}, struct{}{}); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if err := tree.InsertCtx(nil, Entry{Key: 41, RID: ridFor(dups)}, struct{}{}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := tree.InsertCtx(nil, Entry{Key: 43, RID: ridFor(dups + 1)}, struct{}{}); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	got, err := tree.RangeAppendCtx(nil, 42, 42, nil)
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	if len(got) != dups {
		t.Fatalf("Range(42,42) = %d rids, want %d", len(got), dups)
	}
}

func TestDelete(t *testing.T) {
	keys := make([]record.Key, 2000)
	rng := rand.New(rand.NewSource(3))
	for i := range keys {
		keys[i] = record.Key(rng.Intn(50_000))
	}
	entries := sortedEntries(keys)
	tree, err := Bulkload(pagestore.NewMem(), entries)
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	// Delete every third entry.
	var remaining []Entry
	for i, e := range entries {
		if i%3 == 0 {
			if err := tree.DeleteCtx(nil, e); err != nil {
				t.Fatalf("Delete(%v): %v", e, err)
			}
		} else {
			remaining = append(remaining, e)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after deletes: %v", err)
	}
	got, err := tree.RangeAppendCtx(nil, 0, record.KeyDomain, nil)
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	if want := refRange(remaining, 0, record.KeyDomain); !sameRIDs(got, want) {
		t.Fatalf("after deletes: got %d rids, want %d", len(got), len(want))
	}
}

func TestDeleteNotFound(t *testing.T) {
	tree, err := Bulkload(pagestore.NewMem(), sortedEntries([]record.Key{1, 2, 3}))
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	err = tree.DeleteCtx(nil, Entry{Key: 99, RID: ridFor(0)})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(absent) error = %v, want ErrNotFound", err)
	}
	// Same key, different RID must also miss.
	err = tree.DeleteCtx(nil, Entry{Key: 2, RID: ridFor(77)})
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Delete(wrong rid) error = %v, want ErrNotFound", err)
	}
}

func TestRangeEmptyAndInverted(t *testing.T) {
	tree, err := Bulkload(pagestore.NewMem(), sortedEntries([]record.Key{10, 20, 30}))
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	got, err := tree.RangeAppendCtx(nil, 21, 29, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("Range gap = %d rids, err %v; want 0, nil", len(got), err)
	}
	got, err = tree.RangeAppendCtx(nil, 30, 10, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("inverted Range = %d rids, err %v; want 0, nil", len(got), err)
	}
	got, err = tree.RangeAppendCtx(nil, 10, 10, nil)
	if err != nil || len(got) != 1 {
		t.Fatalf("point Range = %d rids, err %v; want 1, nil", len(got), err)
	}
}

func TestMixedInsertDeleteRandomized(t *testing.T) {
	tree, err := New(pagestore.NewMem())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(4))
	live := map[Entry]bool{}
	for op := 0; op < 8000; op++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			e := Entry{Key: record.Key(rng.Intn(2_000)), RID: ridFor(op)}
			if live[e] {
				continue
			}
			if err := tree.InsertCtx(nil, e, struct{}{}); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			live[e] = true
		} else {
			// Delete an arbitrary live entry.
			for e := range live {
				if err := tree.DeleteCtx(nil, e); err != nil {
					t.Fatalf("Delete: %v", err)
				}
				delete(live, e)
				break
			}
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	var entries []Entry
	for e := range live {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool { return Compare(entries[i], entries[j]) < 0 })
	got, err := tree.RangeAppendCtx(nil, 0, record.KeyDomain, nil)
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	if want := refRange(entries, 0, record.KeyDomain); !sameRIDs(got, want) {
		t.Fatalf("randomized workload: got %d rids, want %d", len(got), len(want))
	}
}

func TestFanoutConstants(t *testing.T) {
	// The paper's Fig. 6 argument rests on the B+-tree's fanout exceeding
	// the MB-Tree's. Pin the layout-derived constants so a layout change
	// that silently destroys the experiment is caught here.
	if LeafCapacity != 408 {
		t.Fatalf("LeafCapacity = %d, want 408", LeafCapacity)
	}
	// Aggregate annotations (24 bytes per child) cost internal fanout:
	// 292 -> 106. Still comfortably above the MB-Tree's 69.
	if InnerCapacity != 106 {
		t.Fatalf("InnerCapacity = %d, want 106", InnerCapacity)
	}
}

func TestNodeCountAndBytes(t *testing.T) {
	entries := sortedEntries(make([]record.Key, 1000))
	tree, err := Bulkload(pagestore.NewMem(), entries)
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	if tree.NodeCount() < 3 {
		t.Fatalf("NodeCount = %d, want >= 3 (leaves + root)", tree.NodeCount())
	}
	if tree.Bytes() != int64(tree.NodeCount())*pagestore.PageSize {
		t.Fatal("Bytes must equal NodeCount * PageSize")
	}
}
