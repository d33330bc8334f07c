package bptree

import (
	"errors"
	"slices"
	"testing"

	"sae/internal/agg"
	"sae/internal/pagestore"
	"sae/internal/record"
)

var errStoreFull = errors.New("store full")

// failingStore is a page store whose Allocate fails on its failAt-th call
// (0 never fails), as a closed or full store's does.
type failingStore struct {
	pagestore.Store
	calls, failAt int
}

func (s *failingStore) Allocate() (pagestore.PageID, error) {
	s.calls++
	if s.calls == s.failAt {
		return pagestore.InvalidPage, errStoreFull
	}
	return s.Store.Allocate()
}

// TestFailedSplitLeavesTreeAsItWas: an insert whose split cannot get a
// page fails and leaves the tree exactly as it was: the same entries,
// count, aggregate and store pages. Ascending keys fill the root too, so
// splits reach one and two levels up and need up to three pages; each
// insert is retried with the store failing on its first, second, ...
// allocation until it needs no more than it gets.
func TestFailedSplitLeavesTreeAsItWas(t *testing.T) {
	store := &failingStore{Store: pagestore.NewMem()}
	tree, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	var want []Entry
	var wantAgg agg.Agg
	failed := map[int]int{} // failed inserts by the allocation that failed
	for i := range 23_000 {
		e := Entry{Key: record.Key(i), RID: ridFor(i)}
		for k := 1; ; k++ {
			store.failAt = store.calls + k
			pages, height := store.NumPages(), tree.Height()
			err := tree.InsertCtx(nil, e, struct{}{})
			if err == nil {
				break
			}
			if !errors.Is(err, errStoreFull) {
				t.Fatalf("insert %d: %v", i, err)
			}
			failed[k]++
			if err := tree.Validate(); err != nil {
				t.Fatalf("insert %d, allocation %d failed: %v", i, k, err)
			}
			if tree.Count() != len(want) || tree.Height() != height || store.NumPages() != pages {
				t.Fatalf("insert %d, allocation %d failed: %d entries at height %d on %d pages, want %d at %d on %d",
					i, k, tree.Count(), tree.Height(), store.NumPages(), len(want), height, pages)
			}
			got, err := tree.RangeAppendCtx(nil, 0, record.KeyDomain-1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, refRange(want, 0, record.KeyDomain-1)) {
				t.Fatalf("insert %d, allocation %d failed: the tree's entries changed", i, k)
			}
			if a, err := tree.AggregateCtx(nil, 0, record.KeyDomain-1); err != nil || a != wantAgg {
				t.Fatalf("insert %d, allocation %d failed: aggregate %v (%v), want %v", i, k, a, err, wantAgg)
			}
		}
		want = append(want, e)
		wantAgg = wantAgg.Add(e.Key)
	}
	if failed[1] == 0 || failed[2] == 0 || failed[3] == 0 {
		t.Fatalf("failures by allocation %v: a split of one, two or three nodes went untried", failed)
	}
	if tree.Height() != 3 {
		t.Fatalf("height %d, want 3", tree.Height())
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}
