package xbtree

import (
	"cmp"
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

// TestFailedListWriteLeavesTreeAsItWas: an insert or a delete whose tuple
// list cannot get a page fails and leaves the tree exactly as it was: the
// same tuples under every key, count, token and store pages. Four hot
// keys share list pages with a hundred cold ones; their lists grow until
// they must leave their page, turn into chains at maxInlineTuples+1 and
// grow a chain page at a time, then shrink, each delete rewriting the
// chain, until they move back inline. Each op is retried with the store
// failing on its first, second, ... allocation until it needs no more
// than it gets.
func TestFailedListWriteLeavesTreeAsItWas(t *testing.T) {
	store := &failingStore{Store: pagestore.NewMem()}
	tree, err := New(store)
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference()
	failed := map[string]int{} // failed ops by what the hot list was doing
	apply := func(path string, op func() error) {
		t.Helper()
		for k := 1; ; k++ {
			store.failAt = store.calls + k
			pages := store.NumPages()
			err := op()
			if err == nil {
				return
			}
			if !errors.Is(err, errStoreFull) {
				t.Fatalf("%s: %v", path, err)
			}
			failed[path]++
			if err := tree.Validate(); err != nil {
				t.Fatalf("%s, allocation %d failed: %v", path, k, err)
			}
			if tree.Tuples() != ref.tuples() || store.NumPages() != pages {
				t.Fatalf("%s, allocation %d failed: %d tuples on %d pages, want %d on %d",
					path, k, tree.Tuples(), store.NumPages(), ref.tuples(), pages)
			}
			for key, want := range ref.byKey {
				// A chain keeps its tuples in no fixed order.
				ts, _, err := tree.Lookup(key)
				want = slices.Clone(want)
				byID := func(a, b Tuple) int { return cmp.Compare(a.ID, b.ID) }
				slices.SortFunc(ts, byID)
				slices.SortFunc(want, byID)
				if err != nil || !slices.Equal(ts, want) {
					t.Fatalf("%s, allocation %d failed: key %d holds %d tuples (%v), want %d", path, k, key, len(ts), err, len(want))
				}
			}
			if vt, err := tree.GenerateVTCtx(nil, 0, record.KeyDomain-1); err != nil || vt != ref.vt(0, record.KeyDomain-1) {
				t.Fatalf("%s, allocation %d failed: token changed (%v)", path, k, err)
			}
		}
	}
	next := record.ID(1)
	insert := func(path string, key record.Key) {
		tup := tupleFor(next)
		next++
		apply(path, func() error { return tree.InsertCtx(nil, key, tup) })
		ref.insert(key, tup)
	}
	for key := record.Key(100); key < 200; key++ {
		insert("a new key", key)
	}
	const hot, most = 4, maxInlineTuples + 2*chainCapacity
	for n := 0; n < most; n++ {
		for key := record.Key(0); key < hot; key++ {
			path := "an inline list grows"
			switch {
			case n == maxInlineTuples:
				path = "a list turns into a chain"
			case n > maxInlineTuples:
				path = "a chain grows"
			}
			insert(path, key)
		}
	}
	for n := most; n > 0; n-- {
		for key := record.Key(0); key < hot; key++ {
			path := "a list shrinks"
			switch {
			case n == maxInlineTuples+1:
				path = "a chain moves inline"
			case n > maxInlineTuples+1:
				path = "a chain is rewritten"
			}
			id := ref.byKey[key][0].ID
			apply(path, func() error { return tree.DeleteCtx(nil, key, id) })
			ref.remove(key, id)
		}
	}
	for _, path := range []string{"an inline list grows", "a list turns into a chain", "a chain grows", "a chain is rewritten", "a chain moves inline"} {
		if failed[path] == 0 {
			t.Errorf("no failed allocation when %s: %v", path, failed)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}
