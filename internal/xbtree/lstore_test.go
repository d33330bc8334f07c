package xbtree

import (
	"math/rand"
	"testing"

	"sae/internal/pagestore"
	"sae/internal/record"
)

func newTestLStore() (*lstore, *pagestore.Counting) {
	counting := pagestore.NewCounting(pagestore.NewMem())
	return newLStore(counting), counting
}

func tuplesOf(ids ...record.ID) []Tuple {
	out := make([]Tuple, len(ids))
	for i, id := range ids {
		out[i] = tupleFor(id)
	}
	return out
}

func sameTuples(a, b []Tuple) bool {
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

func TestLStoreAllocRead(t *testing.T) {
	s, _ := newTestLStore()
	ts := tuplesOf(1, 2, 3)
	ref, err := s.alloc(nil, ts)
	if err != nil {
		t.Fatalf("alloc: %v", err)
	}
	got, err := s.read(nil, ref)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !sameTuples(got, ts) {
		t.Fatal("read returned different tuples")
	}
}

func TestLStoreSharesPages(t *testing.T) {
	s, _ := newTestLStore()
	refs := make([]listRef, 20)
	for i := range refs {
		ref, err := s.alloc(nil, tuplesOf(record.ID(i)))
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		refs[i] = ref
	}
	// Twenty singleton lists easily fit one shared page.
	if s.pages != 1 {
		t.Fatalf("20 singleton lists used %d pages, want 1", s.pages)
	}
	for i, ref := range refs {
		got, err := s.read(nil, ref)
		if err != nil || len(got) != 1 || got[0].ID != record.ID(i) {
			t.Fatalf("list %d corrupted: %v err=%v", i, got, err)
		}
	}
}

func TestLStoreAppendGrowsInPlaceViaCompaction(t *testing.T) {
	s, _ := newTestLStore()
	ref, err := s.alloc(nil, tuplesOf(1))
	if err != nil {
		t.Fatal(err)
	}
	// Repeated appends leave dead space that compaction must reclaim; all
	// growth fits a single page until near the inline limit.
	want := tuplesOf(1)
	for i := record.ID(2); i <= 60; i++ {
		tup := tupleFor(i)
		want = append(want, tup)
		ref, err = s.appendTuple(nil, ref, tup)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	got, err := s.read(nil, ref)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !sameTuples(got, want) {
		t.Fatal("list content diverged under append churn")
	}
	if s.pages > 2 {
		t.Fatalf("append churn leaked pages: %d", s.pages)
	}
}

func TestLStoreInlineToChainTransition(t *testing.T) {
	s, _ := newTestLStore()
	ts := make([]Tuple, maxInlineTuples)
	for i := range ts {
		ts[i] = tupleFor(record.ID(i + 1))
	}
	ref, err := s.alloc(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.slot == chainSlot {
		t.Fatal("list at the inline limit should not be a chain")
	}
	// One more tuple crosses into a chain.
	ref, err = s.appendTuple(nil, ref, tupleFor(record.ID(maxInlineTuples+1)))
	if err != nil {
		t.Fatal(err)
	}
	if ref.slot != chainSlot {
		t.Fatal("list past the inline limit should be a chain")
	}
	got, err := s.read(nil, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != maxInlineTuples+1 {
		t.Fatalf("chain holds %d tuples, want %d", len(got), maxInlineTuples+1)
	}
	// Removing brings it back inline.
	for i := 0; i < 2; i++ {
		var d = got[len(got)-1-i].ID
		_, ref, err = s.removeTuple(nil, ref, d)
		if err != nil {
			t.Fatal(err)
		}
	}
	if ref.slot == chainSlot {
		t.Fatal("shrunken list should have moved back inline")
	}
}

func TestLStoreChainMultiplePages(t *testing.T) {
	s, _ := newTestLStore()
	n := 2*chainCapacity + 3
	ts := make([]Tuple, n)
	for i := range ts {
		ts[i] = tupleFor(record.ID(i + 1))
	}
	ref, err := s.allocChain(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.read(nil, ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("chain read %d tuples, want %d", len(got), n)
	}
	// All tuples present (order may differ across chain operations).
	seen := map[record.ID]bool{}
	for _, tup := range got {
		seen[tup.ID] = true
	}
	if len(seen) != n {
		t.Fatal("chain lost or duplicated tuples")
	}
}

func TestLStoreRemoveMissing(t *testing.T) {
	s, _ := newTestLStore()
	ref, err := s.alloc(nil, tuplesOf(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.removeTuple(nil, ref, 99); err == nil {
		t.Fatal("removeTuple of absent id succeeded")
	}
}

func TestLStoreEmptyListTombstone(t *testing.T) {
	s, _ := newTestLStore()
	ref, err := s.alloc(nil, tuplesOf(7))
	if err != nil {
		t.Fatal(err)
	}
	_, ref, err = s.removeTuple(nil, ref, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.read(nil, ref)
	if err != nil {
		t.Fatalf("read of empty list: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty list read %d tuples", len(got))
	}
	// And it can grow again.
	ref, err = s.appendTuple(nil, ref, tupleFor(8))
	if err != nil {
		t.Fatal(err)
	}
	got, err = s.read(nil, ref)
	if err != nil || len(got) != 1 || got[0].ID != 8 {
		t.Fatalf("regrown list wrong: %v err=%v", got, err)
	}
}

func TestLStoreXorOf(t *testing.T) {
	s, _ := newTestLStore()
	ts := tuplesOf(1, 2, 3, 4)
	ref, err := s.alloc(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.xorOf(nil, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := ts[0].Digest.XOR(ts[1].Digest).XOR(ts[2].Digest).XOR(ts[3].Digest)
	if got != want {
		t.Fatal("xorOf mismatch")
	}
}

func TestLStoreManyListsStress(t *testing.T) {
	s, _ := newTestLStore()
	const lists = 2000
	refs := make([]listRef, lists)
	for i := range refs {
		size := 1 + i%5
		ts := make([]Tuple, size)
		for j := range ts {
			ts[j] = tupleFor(record.ID(i*10 + j))
		}
		ref, err := s.alloc(nil, ts)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		refs[i] = ref
	}
	for i, ref := range refs {
		got, err := s.read(nil, ref)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if len(got) != 1+i%5 {
			t.Fatalf("list %d has %d tuples, want %d", i, len(got), 1+i%5)
		}
		for j, tup := range got {
			if tup.ID != record.ID(i*10+j) {
				t.Fatalf("list %d tuple %d corrupted", i, j)
			}
		}
	}
	// Sanity on space usage: ~2000 lists averaging 3 tuples = ~168 KB of
	// payload; the store should not need more than ~60 pages (245 KB).
	if s.pages > 60 {
		t.Fatalf("stress used %d pages, expected tight packing", s.pages)
	}
}

func TestTupleEncodingRoundTrip(t *testing.T) {
	ts := tuplesOf(1, 1<<40, 3)
	buf := make([]byte, len(ts)*TupleSize)
	encodeTuples(buf, ts)
	got := appendTuples(nil, buf)
	if !sameTuples(got, ts) {
		t.Fatal("tuple codec round trip failed")
	}
}

func TestLStoreCapacityConstants(t *testing.T) {
	if maxInlineTuples != 146 {
		t.Fatalf("maxInlineTuples = %d, want 146", maxInlineTuples)
	}
	if chainCapacity != 146 {
		t.Fatalf("chainCapacity = %d, want 146", chainCapacity)
	}
}

// TestBulkloadMatchesAllocLoop checks that the bulk load's packed list
// pages are the pages one alloc call per list leaves: same page images,
// references, page count and fill page, and stores that stay identical
// under the same appends and removals afterwards.
func TestBulkloadMatchesAllocLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var items []KeyTuples
	nextID := record.ID(1)
	addList := func(n int) {
		ts := make([]Tuple, n)
		for i := range ts {
			ts[i] = tupleFor(nextID)
			nextID++
		}
		items = append(items, KeyTuples{Key: record.Key(len(items)), Tuples: ts})
	}
	for i := 0; i < 400; i++ {
		switch {
		case i == 150:
			addList(maxInlineTuples) // exactly fills a fresh page
		case i%97 == 13:
			addList(maxInlineTuples + 1 + rng.Intn(300)) // a chain
		case i%3 == 0:
			addList(2 + rng.Intn(19))
		default:
			addList(1)
		}
	}

	loop, loopStore := newTestLStore()
	loopRefs := make([]listRef, len(items))
	for i, it := range items {
		ref, err := loop.alloc(nil, it.Tuples)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		loopRefs[i] = ref
	}
	bulk, bulkStore := newTestLStore()
	bulkRefs, err := bulk.allocBulk(items)
	if err != nil {
		t.Fatalf("allocBulk: %v", err)
	}

	same := func(stage string) {
		t.Helper()
		for i := range loopRefs {
			if loopRefs[i] != bulkRefs[i] {
				t.Fatalf("%s: list %d at %+v, alloc loop put it at %+v", stage, i, bulkRefs[i], loopRefs[i])
			}
		}
		if bulk.pages != loop.pages || bulk.fillPage != loop.fillPage {
			t.Fatalf("%s: %d pages, fill page %d; alloc loop has %d, %d", stage, bulk.pages, bulk.fillPage, loop.pages, loop.fillPage)
		}
		allocs := loopStore.Stats().Allocs
		if b := bulkStore.Stats().Allocs; b != allocs {
			t.Fatalf("%s: %d page allocations, alloc loop made %d", stage, b, allocs)
		}
		var a, b [pagestore.PageSize]byte
		for id := pagestore.PageID(0); int64(id) < allocs; id++ {
			errA, errB := loopStore.Read(id, a[:]), bulkStore.Read(id, b[:])
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s: page %d readable in one store only (%v, %v)", stage, id, errA, errB)
			}
			if a != b {
				t.Fatalf("%s: page %d differs from the alloc loop's", stage, id)
			}
		}
	}
	same("after load")

	lists := make([][]record.ID, len(items))
	for i, it := range items {
		for _, tup := range it.Tuples {
			lists[i] = append(lists[i], tup.ID)
		}
	}
	for op := 0; op < 1000; op++ {
		i := rng.Intn(len(items))
		if len(lists[i]) == 0 || rng.Intn(2) == 0 {
			tup := tupleFor(nextID)
			nextID++
			var errA, errB error
			loopRefs[i], errA = loop.appendTuple(nil, loopRefs[i], tup)
			bulkRefs[i], errB = bulk.appendTuple(nil, bulkRefs[i], tup)
			if errA != nil || errB != nil {
				t.Fatalf("op %d: appendTuple: %v, %v", op, errA, errB)
			}
			lists[i] = append(lists[i], tup.ID)
			continue
		}
		j := rng.Intn(len(lists[i]))
		id := lists[i][j]
		var errA, errB error
		_, loopRefs[i], errA = loop.removeTuple(nil, loopRefs[i], id)
		_, bulkRefs[i], errB = bulk.removeTuple(nil, bulkRefs[i], id)
		if errA != nil || errB != nil {
			t.Fatalf("op %d: removeTuple: %v, %v", op, errA, errB)
		}
		lists[i] = append(lists[i][:j], lists[i][j+1:]...)
	}
	same("after 1000 updates")
	for i, ref := range bulkRefs {
		got, err := bulk.read(nil, ref)
		if err != nil {
			t.Fatalf("read list %d: %v", i, err)
		}
		if len(got) != len(lists[i]) {
			t.Fatalf("list %d has %d tuples, want %d", i, len(got), len(lists[i]))
		}
	}
}
