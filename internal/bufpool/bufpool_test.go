package bufpool

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"sae/internal/pagestore"
)

// val is the decoded-node type used throughout the tests: each page
// stores a uint64 in its first eight bytes.
type val struct{ n uint64 }

func decodeVal(buf []byte) *val {
	return &val{n: binary.BigEndian.Uint64(buf[:8])}
}

func encodeVal(buf []byte, v *val) {
	for i := range buf {
		buf[i] = 0
	}
	binary.BigEndian.PutUint64(buf[:8], v.n)
}

func newTestIO(t *testing.T, pages int) (*IO, *pagestore.Counting, []pagestore.PageID) {
	t.Helper()
	counting := pagestore.NewCounting(pagestore.NewMem())
	io := NewIO(counting, new(Cache))
	ids := make([]pagestore.PageID, pages)
	for i := range ids {
		id, err := io.Allocate(nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if err := WriteNode(io, nil, id, &val{n: uint64(i)}, encodeVal); err != nil {
			t.Fatal(err)
		}
	}
	return io, counting, ids
}

func TestReadWriteThroughCache(t *testing.T) {
	io, counting, ids := newTestIO(t, 8)
	for i, id := range ids {
		v, err := ReadNode(io, nil, id, decodeVal)
		if err != nil {
			t.Fatal(err)
		}
		if v.n != uint64(i) {
			t.Fatalf("page %d decoded %d, want %d", id, v.n, i)
		}
	}
	// Second pass must be served from the cache but still charged.
	readsBefore := counting.Stats().Reads
	hitsBefore := io.Cache().Stats().Hits
	for range ids {
		if _, err := ReadNode(io, nil, ids[0], decodeVal); err != nil {
			t.Fatal(err)
		}
	}
	if got := io.Cache().Stats().Hits - hitsBefore; got != int64(len(ids)) {
		t.Fatalf("expected %d hits, got %d", len(ids), got)
	}
	if got := counting.Stats().Reads - readsBefore; got != int64(len(ids)) {
		t.Fatalf("hits must charge reads: charged %d, want %d", got, len(ids))
	}
}

// TestCacheKeepsEveryNode: the cache has no capacity, so every node
// written through it stays cached and a sweep over all of them never
// misses.
func TestCacheKeepsEveryNode(t *testing.T) {
	const pages = 4096
	io, _, ids := newTestIO(t, pages)
	if got := io.Cache().Len(); got != pages {
		t.Fatalf("cache holds %d nodes after %d writes", got, pages)
	}
	for _, id := range ids {
		if _, err := ReadNode(io, nil, id, decodeVal); err != nil {
			t.Fatal(err)
		}
	}
	if s := io.Cache().Stats(); s.Misses != 0 || s.Hits != pages {
		t.Fatalf("sweep over %d written pages: %+v, want all hits", pages, s)
	}
}

func TestInvalidationAfterWrite(t *testing.T) {
	io, _, ids := newTestIO(t, 1)
	id := ids[0]
	if _, err := ReadNode(io, nil, id, decodeVal); err != nil {
		t.Fatal(err)
	}
	if err := WriteNode(io, nil, id, &val{n: 42}, encodeVal); err != nil {
		t.Fatal(err)
	}
	v, err := ReadNode(io, nil, id, decodeVal)
	if err != nil {
		t.Fatal(err)
	}
	if v.n != 42 {
		t.Fatalf("read %d after write, want 42", v.n)
	}
	// The store must agree (write-through, not write-back).
	var buf [pagestore.PageSize]byte
	if err := io.Store().Read(id, buf[:]); err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(buf[:8]); got != 42 {
		t.Fatalf("store holds %d, want 42", got)
	}
	// Invalidate drops the node: the next read must decode from disk.
	missesBefore := io.Cache().Stats().Misses
	io.Cache().Invalidate(id)
	if _, err := ReadNode(io, nil, id, decodeVal); err != nil {
		t.Fatal(err)
	}
	if io.Cache().Stats().Misses != missesBefore+1 {
		t.Fatal("read after Invalidate should miss")
	}
}

func TestFreeInvalidates(t *testing.T) {
	io, _, ids := newTestIO(t, 2)
	if _, err := ReadNode(io, nil, ids[0], decodeVal); err != nil {
		t.Fatal(err)
	}
	if err := io.Free(nil, ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadNode(io, nil, ids[0], decodeVal); err == nil {
		t.Fatal("reading a freed page should fail, not hit the cache")
	}
}

// TestAllocateDropsRecycledPage: an id the store hands out again must not
// resurface its old decoded node, even when the free bypassed the cache.
func TestAllocateDropsRecycledPage(t *testing.T) {
	io, _, ids := newTestIO(t, 1)
	if _, err := ReadNode(io, nil, ids[0], decodeVal); err != nil {
		t.Fatal(err)
	}
	if err := io.Store().Free(ids[0]); err != nil {
		t.Fatal(err)
	}
	id, err := io.Allocate(nil)
	if err != nil {
		t.Fatal(err)
	}
	if id != ids[0] {
		t.Skipf("store did not recycle page %d (got %d)", ids[0], id)
	}
	missesBefore := io.Cache().Stats().Misses
	if _, err := ReadNode(io, nil, id, decodeVal); err != nil {
		t.Fatal(err)
	}
	if io.Cache().Stats().Misses != missesBefore+1 {
		t.Fatal("a recycled page was served its previous life's cached node")
	}
}

func TestStatsInvariantHitsPlusMissesEqualsReads(t *testing.T) {
	io, _, ids := newTestIO(t, 32)
	io.SetCache(new(Cache)) // cold, so the reads below both miss and hit
	const reads = 1000
	for i := 0; i < reads; i++ {
		if _, err := ReadNode(io, nil, ids[(i*7)%len(ids)], decodeVal); err != nil {
			t.Fatal(err)
		}
	}
	s := io.Cache().Stats()
	if s.Hits+s.Misses != reads || s.Misses != int64(len(ids)) {
		t.Fatalf("hits(%d) + misses(%d) != reads(%d), or misses != %d pages", s.Hits, s.Misses, reads, len(ids))
	}
}

// TestConcurrentReadersAndWriters hammers one IO from parallel readers,
// writers and invalidators, then checks that (a) the run is race-free
// (run with -race), (b) the stats invariant holds, and (c) after all
// writers finish, every page reads back its final written value — i.e.
// no stale decoded node survives an overlapping write.
func TestConcurrentReadersAndWriters(t *testing.T) {
	const (
		pages   = 64
		writers = 4
		readers = 4
		rounds  = 500
	)
	counting := pagestore.NewCounting(pagestore.NewMem())
	io := NewIO(counting, new(Cache))
	ids := make([]pagestore.PageID, pages)
	final := make([]atomic.Uint64, pages)
	for i := range ids {
		id, err := io.Allocate(nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if err := WriteNode(io, nil, id, &val{n: 0}, encodeVal); err != nil {
			t.Fatal(err)
		}
	}

	var readsIssued atomic.Int64
	var wg sync.WaitGroup
	// Writers own disjoint page ranges so each page's last write is
	// well-defined; readers roam over everything.
	perWriter := pages / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				p := w*perWriter + r%perWriter
				v := uint64(w)<<32 | uint64(r)
				if err := WriteNode(io, nil, ids[p], &val{n: v}, encodeVal); err != nil {
					t.Error(err)
					return
				}
				final[p].Store(v)
				if r%16 == 0 {
					io.Cache().Invalidate(ids[p])
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for r := 0; r < rounds*4; r++ {
				p := (rd*31 + r*7) % pages
				if _, err := ReadNode(io, nil, ids[p], decodeVal); err != nil {
					t.Error(err)
					return
				}
				readsIssued.Add(1)
			}
		}(rd)
	}
	wg.Wait()

	s := io.Cache().Stats()
	if s.Hits+s.Misses != readsIssued.Load() {
		t.Fatalf("hits(%d) + misses(%d) != reads issued (%d)", s.Hits, s.Misses, readsIssued.Load())
	}
	// Convergence: cached nodes must match the store's final content.
	for p, id := range ids {
		v, err := ReadNode(io, nil, id, decodeVal)
		if err != nil {
			t.Fatal(err)
		}
		if want := final[p].Load(); v.n != want {
			t.Fatalf("page %d converged to %d, want %d (stale cache?)", id, v.n, want)
		}
	}
}

// TestGenerationDropsStaleFill drives the exact race the generation
// stamps exist for: a miss decodes old bytes, a write lands in between,
// and the stale fill must be discarded.
func TestGenerationDropsStaleFill(t *testing.T) {
	c := new(Cache)
	id := pagestore.PageID(7)
	_, gen, ok := c.get(id)
	if ok {
		t.Fatal("empty cache cannot hit")
	}
	c.Update(id, &val{n: 2}) // writer overtakes the in-flight miss
	c.fill(id, gen, &val{n: 1})
	v, _, ok := c.get(id)
	if !ok {
		t.Fatal("expected the written node to be cached")
	}
	if v.(*val).n != 2 {
		t.Fatalf("stale fill overwrote a newer node: got %d, want 2", v.(*val).n)
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
	s := Stats{Hits: 1, Misses: 2, Invalidations: 3}
	if got := fmt.Sprintf("%+v", s); got == "" {
		t.Fatal("unprintable stats")
	}
}
