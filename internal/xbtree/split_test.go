package xbtree

import (
	"errors"
	"slices"
	"testing"

	"sae/internal/agg"
	"sae/internal/digest"
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
// page, for a node or for the new key's tuple list, fails and leaves the
// tree exactly as it was: the same tuples under every key, count, token,
// aggregate and store pages. Ascending keys fill the root too, so splits
// reach one and two levels up and need up to three node pages; each
// insert is retried with the store failing on its first, second, ...
// allocation until it needs no more than it gets.
func TestFailedSplitLeavesTreeAsItWas(t *testing.T) {
	store := &failingStore{Store: pagestore.NewMem()}
	tree, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference()
	var wantAgg agg.Agg
	failed := map[int]int{} // failed inserts by the allocation that failed
	const n = 4_500
	for i := range n {
		key, tup := record.Key(i), tupleFor(record.ID(i+1))
		for k := 1; ; k++ {
			store.failAt = store.calls + k
			pages, height := store.NumPages(), tree.Height()
			err := tree.InsertCtx(nil, key, tup)
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
			if tree.Tuples() != ref.tuples() || tree.Height() != height || store.NumPages() != pages {
				t.Fatalf("insert %d, allocation %d failed: %d tuples at height %d on %d pages, want %d at %d on %d",
					i, k, tree.Tuples(), tree.Height(), store.NumPages(), ref.tuples(), height, pages)
			}
			if _, ok, _ := tree.Lookup(key); ok {
				t.Fatalf("insert %d, allocation %d failed: the key is in the tree", i, k)
			}
			for j := range i {
				ts, _, err := tree.Lookup(record.Key(j))
				if err != nil || !slices.Equal(ts, ref.byKey[record.Key(j)]) {
					t.Fatalf("insert %d, allocation %d failed: key %d holds %v (%v)", i, k, j, ts, err)
				}
			}
			vt, err := tree.GenerateVTCtx(nil, 0, record.KeyDomain-1)
			if err != nil || vt != ref.vt(0, record.KeyDomain-1) {
				t.Fatalf("insert %d, allocation %d failed: token changed (%v)", i, k, err)
			}
			if a, err := tree.AggregateCtx(nil, 0, record.KeyDomain-1); err != nil || a != wantAgg {
				t.Fatalf("insert %d, allocation %d failed: aggregate %v (%v), want %v", i, k, a, err, wantAgg)
			}
		}
		ref.insert(key, tup)
		wantAgg = wantAgg.Add(key)
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
	if vt, _ := tree.GenerateVTCtx(nil, 0, record.KeyDomain-1); vt == digest.Zero {
		t.Fatal("empty token over a full tree")
	}
}
