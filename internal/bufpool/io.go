package bufpool

import (
	"sae/internal/exec"
	"sae/internal/pagestore"
)

// IO couples a page store with an optional decoded-node cache. It is the
// common read/write path shared by the B+-tree, MB-Tree and XB-Tree: each
// structure supplies its own decode/encode functions and gets
// pooled page buffers, write-through caching and hit accounting for free.
//
// Every access method takes the request's *exec.Context (nil for load-time
// work) and charges it in lockstep with the global accounting: whenever the
// store stack underneath observes an access, the context observes the same
// access. Per-request counters therefore match what a serial store.Stats()
// delta would have measured, but stay exact when many requests run at once.
type IO struct {
	store pagestore.Store
	cache *Cache
	// acct charges a hit without performing the read; nil when the store
	// does not support direct accounting.
	acct pagestore.ReadAccountant
}

// NewIO wraps store; cache may be nil for uncached access, the reference
// the cached path's accounting is tested against.
func NewIO(store pagestore.Store, cache *Cache) *IO {
	acct, _ := store.(pagestore.ReadAccountant)
	return &IO{store: store, cache: cache, acct: acct}
}

// Store returns the underlying page store.
func (io *IO) Store() pagestore.Store { return io.store }

// Cache returns the attached decoded-node cache (nil when uncached).
func (io *IO) Cache() *Cache { return io.cache }

// SetCache attaches (or, with nil, detaches) a decoded-node cache.
func (io *IO) SetCache(c *Cache) { io.cache = c }

// Allocate reserves a fresh page. The id is dropped from the cache in
// case the store recycled a previously freed (and cached) page.
func (io *IO) Allocate(ctx *exec.Context) (pagestore.PageID, error) {
	id, err := io.store.Allocate()
	if err == nil {
		ctx.AccountAlloc()
		if io.cache != nil {
			io.cache.Invalidate(id)
		}
	}
	return id, err
}

// Discard drops any cached node for id without touching the store. Call
// it when an in-memory node may have been mutated but a later step of
// the same operation failed before WriteNode could persist it — e.g. a
// node split whose sibling allocation failed. Without the discard, the
// cache would keep serving a state the store never saw.
func (io *IO) Discard(id pagestore.PageID) {
	if io.cache != nil {
		io.cache.Invalidate(id)
	}
}

// Free releases a page and invalidates its cached node.
func (io *IO) Free(ctx *exec.Context, id pagestore.PageID) error {
	if io.cache != nil {
		io.cache.Invalidate(id)
	}
	err := io.store.Free(id)
	if err == nil {
		ctx.AccountFree()
	}
	return err
}

// ReadNode returns the decoded node for page id, consulting the cache
// first. On a miss the page is read into a pooled buffer, decoded, and
// the decoded node installed (generation-checked, so a concurrent write
// cannot leave a stale node behind).
//
// Callers that mutate the returned node must hold their structure's
// write lock and follow up with WriteNode, which refreshes the cache;
// read-only callers may share the node freely.
func ReadNode[N any](io *IO, ctx *exec.Context, id pagestore.PageID, decode func([]byte) N) (N, error) {
	c := io.cache
	if c == nil {
		return readNodeDirect(io, ctx, id, decode)
	}
	v, gen, ok := c.get(id)
	if ok {
		if n, typed := v.(N); typed {
			if err := io.chargeHit(ctx, id); err != nil {
				var zero N
				return zero, err
			}
			return n, nil
		}
		// A different consumer's node type under this id — treat as a
		// miss and overwrite below. Cannot happen while page ids are
		// disjoint per structure, but decoding is the safe fallback.
		gen = c.genOf(id)
	}
	buf := GetPage()
	defer PutPage(buf)
	if err := io.store.Read(id, buf[:]); err != nil {
		var zero N
		return zero, err
	}
	ctx.AccountRead()
	n := decode(buf[:])
	c.fill(id, gen, n)
	return n, nil
}

func readNodeDirect[N any](io *IO, ctx *exec.Context, id pagestore.PageID, decode func([]byte) N) (N, error) {
	buf := GetPage()
	defer PutPage(buf)
	if err := io.store.Read(id, buf[:]); err != nil {
		var zero N
		return zero, err
	}
	ctx.AccountRead()
	return decode(buf[:]), nil
}

// chargeHit charges a hit as the read it replaced: account the read
// directly when the store supports it, otherwise perform the raw page
// read so every wrapper in the store stack observes exactly the accesses
// an uncached run would issue. The request context is charged whenever
// the store stack is.
func (io *IO) chargeHit(ctx *exec.Context, id pagestore.PageID) error {
	if io.acct != nil {
		io.acct.AccountRead(id)
		ctx.AccountRead()
		return nil
	}
	buf := GetPage()
	defer PutPage(buf)
	if err := io.store.Read(id, buf[:]); err != nil {
		return err
	}
	ctx.AccountRead()
	return nil
}

// WriteNode encodes the node into a pooled buffer, writes the page, and
// refreshes the cache write-through. A failed write invalidates instead,
// so the cache never serves a node the store rejected.
func WriteNode[N any](io *IO, ctx *exec.Context, id pagestore.PageID, n N, encode func([]byte, N)) error {
	buf := GetPage()
	defer PutPage(buf)
	encode(buf[:], n)
	if err := io.store.Write(id, buf[:]); err != nil {
		if io.cache != nil {
			io.cache.Invalidate(id)
		}
		return err
	}
	ctx.AccountWrite()
	if io.cache != nil {
		io.cache.Update(id, n)
	}
	return nil
}
