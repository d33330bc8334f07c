package bufpool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sae/internal/exec"
	"sae/internal/pagestore"
)

// val is the node type used throughout the tests.
type val struct{ n uint64 }

func newTestTable(t *testing.T, mem *pagestore.Mem, nodes int) (*Table[*val], *pagestore.Counting, []pagestore.PageID) {
	t.Helper()
	counting := pagestore.NewCounting(mem)
	tab := NewTable[*val](counting)
	ids := make([]pagestore.PageID, nodes)
	for i := range ids {
		id, err := tab.Allocate(nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		tab.Put(nil, id, &val{n: uint64(i)})
	}
	return tab, counting, ids
}

// TestReadWriteThroughCache: the table is where the nodes are. A Get
// returns the object last Put, and every access is charged to the
// request's context and to the store's counters as the page access it
// stands for, while the store holds no bytes for a node.
func TestReadWriteThroughCache(t *testing.T) {
	mem := pagestore.NewMem()
	tab, counting, ids := newTestTable(t, mem, 8)
	if s := counting.Stats(); s != (pagestore.Stats{Allocs: 8, Writes: 8}) {
		t.Fatalf("building 8 nodes charged %+v, want 8 allocations and 8 writes", s)
	}
	ctx := exec.NewContext()
	for i, id := range ids {
		v, err := tab.Get(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if v.n != uint64(i) {
			t.Fatalf("node %d holds %d, want %d", id, v.n, i)
		}
	}
	tab.Put(ctx, ids[0], &val{n: 42})
	if v, _ := tab.Get(ctx, ids[0]); v.n != 42 {
		t.Fatalf("read %d after a Put of 42", v.n)
	}
	if s := ctx.Stats(); s.Reads != 9 || s.Writes != 1 {
		t.Fatalf("context charged %+v, want 9 reads and 1 write", s)
	}
	if s := counting.Stats(); s.Reads != 9 || s.Writes != 9 {
		t.Fatalf("store charged %+v, want 9 reads and 9 writes", s)
	}
	if n, b := mem.NumPages(), mem.Buffers(); n != 8 || b != 0 {
		t.Fatalf("store has %d pages holding %d buffers, want 8 holding none", n, b)
	}
}

// TestCacheKeepsEveryNode: the table has no capacity; it holds every node
// put in it.
func TestCacheKeepsEveryNode(t *testing.T) {
	const nodes = 4096
	tab, _, ids := newTestTable(t, pagestore.NewMem(), nodes)
	if got := tab.Len(); got != nodes {
		t.Fatalf("table holds %d nodes after %d puts", got, nodes)
	}
	for i, id := range ids {
		if v, err := tab.Get(nil, id); err != nil || v.n != uint64(i) {
			t.Fatalf("node %d: %v, %v", id, v, err)
		}
	}
}

func TestFreeInvalidates(t *testing.T) {
	tab, counting, ids := newTestTable(t, pagestore.NewMem(), 2)
	if err := tab.Free(nil, ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Get(nil, ids[0]); !errors.Is(err, pagestore.ErrBadPageID) {
		t.Fatalf("reading a freed node: err = %v, want ErrBadPageID", err)
	}
	if tab.Len() != 1 || counting.NumPages() != 1 || counting.Stats().Frees != 1 {
		t.Fatalf("after a free: %d nodes, %d pages, %+v", tab.Len(), counting.NumPages(), counting.Stats())
	}
}

// TestAllocateDropsRecycledPage: an id the store hands out again holds no
// node until it is Put, whatever its previous life held.
func TestAllocateDropsRecycledPage(t *testing.T) {
	tab, _, ids := newTestTable(t, pagestore.NewMem(), 1)
	if err := tab.Free(nil, ids[0]); err != nil {
		t.Fatal(err)
	}
	id, err := tab.Allocate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != ids[0] {
		t.Skipf("store did not recycle page %d (got %d)", ids[0], id)
	}
	if _, err := tab.Get(nil, id); err == nil {
		t.Fatal("a recycled page was served its previous life's node")
	}
}

// TestStatsInvariantHitsPlusMissesEqualsReads: the table counts every
// read it serves, which a party reports as its cache hits, with no misses.
func TestStatsInvariantHitsPlusMissesEqualsReads(t *testing.T) {
	tab, _, ids := newTestTable(t, pagestore.NewMem(), 32)
	const reads = 1000
	for i := 0; i < reads; i++ {
		if _, err := tab.Get(nil, ids[(i*7)%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tab.Get(nil, pagestore.PageID(999)); err == nil {
		t.Fatal("read of an id the table never held succeeded")
	}
	s := Stats{Hits: tab.Reads()}
	if s.Hits+s.Misses != reads {
		t.Fatalf("hits(%d) + misses(%d) != reads(%d)", s.Hits, s.Misses, reads)
	}
}

// TestConcurrentReadersAndWriters runs readers under a shared lock against
// a writer under the exclusive one, the discipline every party keeps
// around its trees, and checks that (a) the run is race-free (run with
// -race), (b) the read count is exact, and (c) every node reads back its
// final value.
func TestConcurrentReadersAndWriters(t *testing.T) {
	const (
		nodes   = 64
		readers = 4
		rounds  = 500
	)
	tab, counting, ids := newTestTable(t, pagestore.NewMem(), nodes)
	var mu sync.RWMutex
	var readsIssued atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 1; r <= rounds; r++ {
			mu.Lock()
			p := r % nodes
			tab.Put(nil, ids[p], &val{n: uint64(r)})
			if r%16 == 0 {
				// A node changes in place, as a tree's insert changes it.
				v, _ := tab.Get(nil, ids[p])
				v.n++
				tab.Put(nil, ids[p], v)
			}
			mu.Unlock()
		}
	}()
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for r := 0; r < rounds*4; r++ {
				mu.RLock()
				v, err := tab.Get(nil, ids[(rd*31+r*7)%nodes])
				if err == nil {
					_ = v.n
				}
				mu.RUnlock()
				if err != nil {
					t.Error(err)
					return
				}
				readsIssued.Add(1)
			}
		}(rd)
	}
	wg.Wait()

	if got, want := tab.Reads(), readsIssued.Load()+rounds/16; got != want {
		t.Fatalf("table counted %d reads, %d were issued", got, want)
	}
	if got := counting.Stats().Reads; got != tab.Reads() {
		t.Fatalf("store charged %d reads, table served %d", got, tab.Reads())
	}
	for p, id := range ids {
		want := uint64(p)
		for r := 1; r <= rounds; r++ {
			if r%nodes == p {
				want = uint64(r)
				if r%16 == 0 {
					want++
				}
			}
		}
		if v, _ := tab.Get(nil, id); v.n != want {
			t.Fatalf("node %d holds %d, want %d", id, v.n, want)
		}
	}
}

func TestPagePoolRoundTrip(t *testing.T) {
	p := GetPage()
	p[0] = 0xAB
	PutPage(p)
	q := GetPage()
	defer PutPage(q)
	// Nothing to assert about contents (pool gives no guarantees); this
	// exercises the path under -race.
	_ = q
}

func TestStatsString(t *testing.T) {
	// Keep Stats printable for benchmark reporting.
	s := Stats{Hits: 1, Misses: 2}
	if got := fmt.Sprintf("%+v", s); got == "" {
		t.Fatal("unprintable stats")
	}
}
