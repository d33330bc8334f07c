package pagestore

import "sync/atomic"

// Stats is a snapshot of access counters.
type Stats struct {
	Reads  int64
	Writes int64
	Allocs int64
	Frees  int64
}

// Accesses returns the total number of node (page) accesses: reads plus
// writes. This is the quantity the paper charges 10 ms for.
func (s Stats) Accesses() int64 { return s.Reads + s.Writes }

// Sub returns s - o component-wise, for measuring deltas around a query.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:  s.Reads - o.Reads,
		Writes: s.Writes - o.Writes,
		Allocs: s.Allocs - o.Allocs,
		Frees:  s.Frees - o.Frees,
	}
}

// Add returns s + o component-wise.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:  s.Reads + o.Reads,
		Writes: s.Writes + o.Writes,
		Allocs: s.Allocs + o.Allocs,
		Frees:  s.Frees + o.Frees,
	}
}

// ReadAccountant is implemented by stores that can charge a read without
// performing it. The decoded-node cache (internal/bufpool) charges every
// hit through it, keeping the paper's node-access accounting exact while
// skipping the page copy.
type ReadAccountant interface {
	AccountRead(id PageID)
}

// Counting wraps a Store and counts every operation. All experiments wrap
// their stores in Counting so the cost model can translate page accesses
// into simulated milliseconds.
type Counting struct {
	inner  Store
	reads  atomic.Int64
	writes atomic.Int64
	allocs atomic.Int64
	frees  atomic.Int64
}

// NewCounting wraps inner with access counting.
func NewCounting(inner Store) *Counting {
	return &Counting{inner: inner}
}

// Allocate implements Store.
func (c *Counting) Allocate() (PageID, error) {
	c.allocs.Add(1)
	return c.inner.Allocate()
}

// Read implements Store.
func (c *Counting) Read(id PageID, buf []byte) error {
	c.reads.Add(1)
	return c.inner.Read(id, buf)
}

// Borrow implements Store; a borrow is charged as one read.
func (c *Counting) Borrow(id PageID) ([]byte, error) {
	c.reads.Add(1)
	return c.inner.Borrow(id)
}

// AccountRead implements ReadAccountant: it charges a read that was
// served from a decoded-node cache without touching the inner store.
func (c *Counting) AccountRead(PageID) {
	c.reads.Add(1)
}

// Write implements Store.
func (c *Counting) Write(id PageID, buf []byte) error {
	c.writes.Add(1)
	return c.inner.Write(id, buf)
}

// Free implements Store.
func (c *Counting) Free(id PageID) error {
	c.frees.Add(1)
	return c.inner.Free(id)
}

// NumPages implements Store.
func (c *Counting) NumPages() int { return c.inner.NumPages() }

// Close implements Store.
func (c *Counting) Close() error { return c.inner.Close() }

// Stats returns a snapshot of the counters.
func (c *Counting) Stats() Stats {
	return Stats{
		Reads:  c.reads.Load(),
		Writes: c.writes.Load(),
		Allocs: c.allocs.Load(),
		Frees:  c.frees.Load(),
	}
}

// Reset zeroes all counters.
func (c *Counting) Reset() {
	c.reads.Store(0)
	c.writes.Store(0)
	c.allocs.Store(0)
	c.frees.Store(0)
}
