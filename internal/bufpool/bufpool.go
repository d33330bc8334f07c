// Package bufpool is the shared buffer-management layer between the page
// stores and the page-backed structures built on them.
//
// It provides two things:
//
//   - a process-wide sync.Pool of 4096-byte page buffers (GetPage/PutPage)
//     that removes the per-access buffer churn from every read and write
//     path, and
//   - Cache, a sharded, generation-stamped map of *decoded* index nodes
//     (B+-tree, MB-Tree, XB-Tree) keyed by PageID. A hit skips both the
//     Store.Read copy and the node decode — the two costs that dominate
//     wall-clock time on top of the paper's simulated 10 ms/node-access
//     charge. The heap file is not cached: its pages already hold records
//     in their wire encoding, and it serves them from the store's own
//     page bytes (pagestore.Store.Borrow).
//
// A Cache has no capacity: it keeps every node it has read or written
// until that page is freed, so it holds the whole index of the party
// that owns it (the densest, the XB-Tree, has ~8 500 nodes at a million
// records), and a warmed party never misses.
//
// Because the paper's experiments charge every node access, a hit is
// still charged to the accounting store — via pagestore.ReadAccountant
// when the store has one, or by performing the raw page read otherwise —
// so the node-access counters are exactly those of an uncached run and
// the figures' shapes are preserved while wall-clock time drops.
//
// Generation stamps make the cache safe for concurrent readers racing
// writers without holding any lock across a store read: a reader that
// misses records the page's generation, reads and decodes outside the
// lock, and only installs the decoded node if no write or invalidation
// bumped the generation in the meantime.
package bufpool

import (
	"sync"
	"sync/atomic"

	"sae/internal/pagestore"
)

// numShards spreads the cache across independently locked shards so
// concurrent traversals do not serialize on a single mutex. Must be a
// power of two.
const numShards = 16

// DefaultCapacity is ignored: a Cache has no capacity. The name is kept
// for callers written against the sized cache.
const DefaultCapacity = 1024

// ChargePolicy is ignored: every hit is charged. The type is kept for
// callers written against the two-policy cache.
type ChargePolicy uint8

// ChargeAllAccesses is the one charge rule, and the only ChargePolicy.
const ChargeAllAccesses ChargePolicy = 0

// Stats is a snapshot of the cache's counters. Every lookup increments
// exactly one of Hits or Misses, so Hits+Misses equals the number of
// ReadNode calls served through the cache.
type Stats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
}

// Cache is a sharded map of decoded nodes keyed by PageID. The zero value
// is an empty cache ready for use; all methods are safe for concurrent
// use.
type Cache struct {
	shards [numShards]shard

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

type shard struct {
	mu    sync.Mutex
	nodes map[pagestore.PageID]any
	// gen stamps each page id with a counter bumped by every write and
	// invalidation; a miss-fill racing a writer is dropped when its
	// recorded generation is stale (see genTable for the protocol and why
	// stamps are never deleted).
	gen genTable
}

// New returns an empty cache. Both arguments are ignored; they are kept
// for callers written against the sized cache. new(Cache) is the same.
func New(capacity int, policy ChargePolicy) *Cache { return new(Cache) }

func (c *Cache) shardFor(id pagestore.PageID) *shard {
	return &c.shards[uint32(id)&(numShards-1)]
}

// get returns the cached node for id. On a miss it returns the page's
// current generation, which the caller must pass back to fill.
func (c *Cache) get(id pagestore.PageID) (v any, gen uint64, ok bool) {
	s := c.shardFor(id)
	s.mu.Lock()
	v, ok = s.nodes[id]
	if !ok {
		gen = s.gen.current(id)
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, gen, ok
}

// genOf returns the page's current generation (the cold fallback for a
// hit whose cached value had an unexpected type).
func (c *Cache) genOf(id pagestore.PageID) uint64 {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen.current(id)
}

// fill installs a node decoded outside the lock, unless a write or
// invalidation raced the read (the generation moved on).
func (c *Cache) fill(id pagestore.PageID, gen uint64, v any) {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen.stale(id, gen) {
		return
	}
	s.init()
	s.nodes[id] = v
}

// Update refreshes the cached node after a successful page write
// (write-through) and bumps the generation so stale in-flight fills are
// dropped.
func (c *Cache) Update(id pagestore.PageID, v any) {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.init()
	s.gen.bump(id)
	s.nodes[id] = v
}

// Invalidate drops the cached node for id (freed or failed-write pages)
// and bumps the generation.
func (c *Cache) Invalidate(id pagestore.PageID) {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.init()
	s.gen.bump(id)
	if _, ok := s.nodes[id]; ok {
		delete(s.nodes, id)
		c.invalidations.Add(1)
	}
}

// init makes the shard's maps on its first write; a zero shard has
// neither, and reads of the nil maps find nothing. Caller holds s.mu.
func (s *shard) init() {
	if s.gen == nil {
		s.nodes = make(map[pagestore.PageID]any)
		s.gen = make(genTable)
	}
}

// Len returns the number of decoded nodes currently cached.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.nodes)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// pagePool recycles page-sized buffers across all stores and structures.
var pagePool = sync.Pool{
	New: func() any { return new([pagestore.PageSize]byte) },
}

// GetPage returns a page buffer from the pool. Contents are undefined;
// encoders must overwrite the full page (all node encoders here do).
func GetPage() *[pagestore.PageSize]byte {
	return pagePool.Get().(*[pagestore.PageSize]byte)
}

// PutPage returns a buffer to the pool. The caller must not retain it.
func PutPage(p *[pagestore.PageSize]byte) {
	pagePool.Put(p)
}
