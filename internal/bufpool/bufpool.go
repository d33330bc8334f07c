// Package bufpool is the shared buffer-management layer between the page
// stores and the page-backed structures built on them.
//
// It provides two things:
//
//   - a process-wide sync.Pool of 4096-byte page buffers (GetPage/PutPage)
//     that removes the per-access buffer churn from every read and write
//     path, and
//   - Cache, a sharded, generation-stamped LRU of *decoded* index nodes
//     (B+-tree, MB-Tree, XB-Tree) keyed by PageID. A hit skips both the
//     Store.Read copy and the node decode — the two costs that dominate
//     wall-clock time on top of the paper's simulated 10 ms/node-access
//     charge. The heap file is not cached: its pages already hold records
//     in their wire encoding, and it serves them from the store's own
//     page bytes (pagestore.Store.Borrow).
//
// Because the paper's experiments charge every node access, the cache
// supports two charge policies. ChargeAllAccesses keeps the node-access
// counters exactly as if no cache existed — a hit is still charged to the
// accounting store (via pagestore.ReadAccountant when available, or by
// performing the raw page read otherwise) — so the figures' shapes are
// preserved while wall-clock time drops. ChargeMissesOnly models a real
// buffer pool where hits are free, for the ablation experiments.
//
// Generation stamps make the cache safe for concurrent readers racing
// writers without holding any lock across a store read: a reader that
// misses records the page's generation, reads and decodes outside the
// lock, and only installs the decoded node if no write or invalidation
// bumped the generation in the meantime.
package bufpool

import (
	"container/list"
	"sync"
	"sync/atomic"

	"sae/internal/pagestore"
)

// numShards spreads the cache across independently locked shards so
// concurrent traversals do not serialize on a single mutex. Must be a
// power of two.
const numShards = 16

// DefaultCapacity is the default total number of decoded nodes retained
// across all shards. It holds the index working set of a party with up to
// ~100K records: the densest index built here, the XB-Tree, has ~850
// nodes at that size (the SP's B+-tree ~250, TOM's MB-Tree ~750). An LRU
// whose capacity trails the working set thrashes — every miss pays
// decode + insert + evict — so callers indexing larger datasets size the
// cache with CapacityFor.
const DefaultCapacity = 1024

// CapacityFor returns a decoded-node cache capacity sized to the index
// working set of a party holding `records` records, so callers can size
// a party's cache from its dataset (or, under sharding, from its
// partition's cardinality) instead of the flat DefaultCapacity.
//
// The working set is the leaf level of the densest index built here (the
// XB-Tree at ~120 entries per leaf; the MB-Tree packs 136 and the
// B+-tree ~3x more) plus its inner nodes, a rounding error at that
// fanout. A 25% headroom absorbs post-load insertions and splits. The
// floor keeps tiny partitions from degenerating to per-shard caches that
// cannot hold even one query's path.
func CapacityFor(records int) int {
	const (
		minLeafFanout = 120 // densest leaf layout (xbtree LeafCapacity; mbtree packs 136)
		floor         = 1024
	)
	leaves := records/minLeafFanout + 1
	inner := leaves/minLeafFanout + 1
	c := leaves + inner
	c += c / 4
	return max(c, floor)
}

// ChargePolicy controls how decoded-cache hits interact with the paper's
// node-access accounting.
type ChargePolicy uint8

const (
	// ChargeAllAccesses charges a hit as if the page had been read: the
	// node-access counters (and therefore every simulated-time figure)
	// are identical to an uncached run. Only the CPU work is saved.
	ChargeAllAccesses ChargePolicy = iota
	// ChargeMissesOnly leaves hits unaccounted, modeling a conventional
	// buffer pool where only faults reach the disk.
	ChargeMissesOnly
)

// Stats is a snapshot of the cache's counters. Every lookup increments
// exactly one of Hits or Misses, so Hits+Misses equals the number of
// ReadNode calls served through the cache.
type Stats struct {
	Hits          int64
	Misses        int64
	Evictions     int64
	Invalidations int64
}

// Cache is a sharded LRU of decoded nodes keyed by PageID. All methods
// are safe for concurrent use.
type Cache struct {
	policy ChargePolicy
	shards [numShards]shard

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

type shard struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // front = most recent; values are *cnode
	byID     map[pagestore.PageID]*list.Element
	// gen stamps each page id with a counter bumped by every write and
	// invalidation; a miss-fill racing a writer is dropped when its
	// recorded generation is stale (see genTable for the protocol and why
	// stamps are never deleted).
	gen genTable
}

type cnode struct {
	id pagestore.PageID
	v  any
}

// New returns a cache holding up to capacity decoded nodes under the
// given charge policy. capacity values below one node per shard are
// rounded up.
func New(capacity int, policy ChargePolicy) *Cache {
	perShard := (capacity + numShards - 1) / numShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{policy: policy}
	for i := range c.shards {
		c.shards[i] = shard{
			capacity: perShard,
			lru:      list.New(),
			byID:     make(map[pagestore.PageID]*list.Element, perShard),
			gen:      make(genTable),
		}
	}
	return c
}

// Policy returns the cache's charge policy.
func (c *Cache) Policy() ChargePolicy { return c.policy }

func (c *Cache) shardFor(id pagestore.PageID) *shard {
	return &c.shards[uint32(id)&(numShards-1)]
}

// get returns the cached node for id. On a miss it returns the page's
// current generation, which the caller must pass back to fill; on a hit
// gen is not looked up (the hot path skips the extra map access).
func (c *Cache) get(id pagestore.PageID) (v any, gen uint64, ok bool) {
	s := c.shardFor(id)
	s.mu.Lock()
	if el, hit := s.byID[id]; hit {
		s.lru.MoveToFront(el)
		v = el.Value.(*cnode).v
		s.mu.Unlock()
		c.hits.Add(1)
		return v, 0, true
	}
	gen = s.gen.current(id)
	s.mu.Unlock()
	c.misses.Add(1)
	return nil, gen, false
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
	if el, ok := s.byID[id]; ok {
		el.Value.(*cnode).v = v
		s.lru.MoveToFront(el)
		return
	}
	s.insert(c, id, v)
}

// Update refreshes the cached node after a successful page write
// (write-through) and bumps the generation so stale in-flight fills are
// dropped.
func (c *Cache) Update(id pagestore.PageID, v any) {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen.bump(id)
	if el, ok := s.byID[id]; ok {
		el.Value.(*cnode).v = v
		s.lru.MoveToFront(el)
		return
	}
	s.insert(c, id, v)
}

// Invalidate drops the cached node for id (freed or failed-write pages)
// and bumps the generation.
func (c *Cache) Invalidate(id pagestore.PageID) {
	s := c.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen.bump(id)
	if el, ok := s.byID[id]; ok {
		s.lru.Remove(el)
		delete(s.byID, id)
		c.invalidations.Add(1)
	}
}

// insert adds a fresh entry, evicting from the shard's LRU tail on
// overflow. Caller holds s.mu.
func (s *shard) insert(c *Cache, id pagestore.PageID, v any) {
	s.byID[id] = s.lru.PushFront(&cnode{id: id, v: v})
	for s.lru.Len() > s.capacity {
		old := s.lru.Remove(s.lru.Back()).(*cnode)
		delete(s.byID, old.id)
		c.evictions.Add(1)
	}
}

// Len returns the number of decoded nodes currently cached.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
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
