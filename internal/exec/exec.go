// Package exec defines the request-scoped execution context threaded through
// the storage stack: pagestore → bufpool → bptree/mbtree/xbtree/heapfile →
// core/tom → wire.
//
// The seed measured per-query costs as store.Stats() deltas around the call,
// which corrupts under concurrency: two queries in flight each observe the
// other's page accesses, so the whole system was effectively one query at a
// time. A Context instead carries its own access counters; every layer
// charges the context for the node accesses it performs on behalf of the
// request, and the global pagestore.Counting totals keep accumulating
// underneath exactly as before (its counters are atomics, so the merge of
// concurrent requests into the global totals is race-free). Per-query
// numbers come from the context and are exact no matter how many requests
// run in parallel.
//
// A Context belongs to one request on one goroutine: its counters are plain
// ints with no locking. All methods are nil-safe — a nil *Context is "no
// request-scoped accounting" and costs one predicted branch — so load-time
// paths (bulkloads, restores) simply pass nil.
package exec

import (
	"sync"

	"sae/internal/pagestore"
)

// Context is the per-request execution state. Create one per query or
// update with NewContext; zero value is also ready.
type Context struct {
	stats pagestore.Stats
}

// NewContext returns a fresh request context.
func NewContext() *Context { return &Context{} }

// ctxPool recycles Contexts across requests. A Context is tiny, but the
// burst serve loop creates one per query per burst; pooling keeps the
// steady-state allocation count of a burst at zero.
var ctxPool = sync.Pool{New: func() any { return &Context{} }}

// GetContext returns a zeroed Context from the pool. Pair with PutContext
// once the request's stats have been read out.
func GetContext() *Context {
	c := ctxPool.Get().(*Context)
	c.Reset()
	return c
}

// PutContext returns a Context to the pool. The caller must not touch it
// afterwards. Putting nil is a no-op.
func PutContext(c *Context) {
	if c != nil {
		ctxPool.Put(c)
	}
}

// Reset clears the context for reuse by a new request.
func (c *Context) Reset() {
	if c != nil {
		*c = Context{}
	}
}

// AccountRead charges one page read to the request.
func (c *Context) AccountRead() {
	if c != nil {
		c.stats.Reads++
	}
}

// AccountWrite charges one page write to the request.
func (c *Context) AccountWrite() {
	if c != nil {
		c.stats.Writes++
	}
}

// AccountAlloc charges one page allocation to the request.
func (c *Context) AccountAlloc() {
	if c != nil {
		c.stats.Allocs++
	}
}

// AccountFree charges one page free to the request.
func (c *Context) AccountFree() {
	if c != nil {
		c.stats.Frees++
	}
}

// Stats returns a snapshot of the request's counters (zero for nil).
// Phase costs are measured as deltas between snapshots, mirroring how the
// global counters were used before — but on state no other request touches.
func (c *Context) Stats() pagestore.Stats {
	if c == nil {
		return pagestore.Stats{}
	}
	return c.stats
}

// Lane is the per-serve-lane execution scratch. A burst-mode server runs N
// independent lanes (one per GOMAXPROCS slot); each lane serves its bursts
// on a single goroutine, so everything hanging off a Lane is accessed
// without locks. The lane keeps a reusable set of request Contexts sized to
// the largest burst it has seen, so steady-state bursts allocate nothing.
type Lane struct {
	// ID is the lane's index in [0, NumLanes); lanes use it for shard
	// affinity (e.g. picking a bufpool shard or a stats slot).
	ID int

	ctxs []*Context
}

// NewLane returns an empty lane with the given index.
func NewLane(id int) *Lane { return &Lane{ID: id} }

// Contexts returns n reset request contexts owned by the lane. The slice
// and the contexts are valid until the next Contexts call; the lane grows
// its context set on demand and never shrinks it.
func (l *Lane) Contexts(n int) []*Context {
	for len(l.ctxs) < n {
		l.ctxs = append(l.ctxs, NewContext())
	}
	out := l.ctxs[:n]
	for _, c := range out {
		c.Reset()
	}
	return out
}
