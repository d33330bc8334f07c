// Package pagestore provides the disk-page abstraction every index and file
// in this repository is built on: fixed 4096-byte pages addressed by PageID.
//
// Mem is the backing store. Counting wraps it and tallies page accesses so
// experiments can charge the paper's 10 ms per node access. A tree's
// nodes live as objects in the tree (package bufpool's node table): the
// store allocates their ids and is charged their accesses, but holds
// bytes only for the pages written through it, the heap file's and the
// XB-Tree's tuple lists. No store here outlives its process: an SAE party
// survives a restart through core.DurableSystem's checkpoint plus WAL.
package pagestore

import (
	"errors"
	"fmt"
	"sync"
)

// PageSize is the fixed page size in bytes, matching the paper's setup.
const PageSize = 4096

// PageID addresses a page within a store. IDs are dense, starting at 0.
type PageID uint32

// InvalidPage is a sentinel for "no page" (e.g. a leaf's missing sibling).
const InvalidPage PageID = ^PageID(0)

// Store is the minimal page-device contract. Read and Write operate on whole
// pages; buf must be exactly PageSize bytes.
type Store interface {
	// Allocate reserves a fresh zeroed page and returns its id.
	Allocate() (PageID, error)
	// Read fills buf with the content of page id.
	Read(id PageID, buf []byte) error
	// Borrow lends the page's own bytes instead of copying them out. The
	// slice stays valid, and unchanged, only while no Write to id can
	// run: the caller's structure lock must keep writers out for as long
	// as it reads the borrowed bytes, and it must never write to them.
	Borrow(id PageID) ([]byte, error)
	// Write persists buf as the content of page id.
	Write(id PageID, buf []byte) error
	// Free releases a page. Freed ids may be recycled by Allocate.
	Free(id PageID) error
	// NumPages returns the number of live (allocated, not freed) pages.
	NumPages() int
	// Close releases underlying resources.
	Close() error
}

// Errors shared by implementations.
var (
	ErrBadPageID   = errors.New("pagestore: page id out of range or freed")
	ErrBadBufSize  = errors.New("pagestore: buffer must be exactly one page")
	ErrStoreClosed = errors.New("pagestore: store is closed")
)

// Mem is an in-memory store. It is safe for concurrent use.
//
// A page gets its 4 KiB buffer on its first Write: a page id that is only
// allocated, such as a tree node's (the node lives as an object in its
// tree's bufpool.Table), counts in NumPages but holds no bytes, and reads
// as zeros. A freed page keeps its buffer: Allocate hands the most
// recently freed id back with that buffer zeroed, so a structure that
// frees and allocates at the same rate (a heap file under churn)
// allocates no memory and makes no garbage. The buffer may be lent again
// under a new id, so a borrower must be done with a page's bytes before
// its structure lock lets the page be freed.
type Mem struct {
	mu     sync.RWMutex
	pages  []page
	free   []PageID
	closed bool
}

// page is one id's slot: whether it is allocated, and its bytes, nil
// until the first Write.
type page struct {
	buf  []byte
	live bool
}

// zeros is what Read and Borrow see of a page never written. A borrower
// never writes to the bytes it is lent.
var zeros [PageSize]byte

// NewMem returns an empty in-memory page store.
func NewMem() *Mem {
	return &Mem{}
}

// Allocate implements Store.
func (m *Mem) Allocate() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrStoreClosed
	}
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		clear(m.pages[id].buf)
		m.pages[id].live = true
		return id, nil
	}
	m.pages = append(m.pages, page{live: true})
	return PageID(len(m.pages) - 1), nil
}

// live returns page id's slot, or an error naming op when the store is
// closed or id is not allocated. Caller holds m.mu.
func (m *Mem) live(id PageID, op string) (*page, error) {
	if m.closed {
		return nil, ErrStoreClosed
	}
	if int(id) >= len(m.pages) || !m.pages[id].live {
		return nil, fmt.Errorf("%w: %s %d", ErrBadPageID, op, id)
	}
	return &m.pages[id], nil
}

// Read implements Store.
func (m *Mem) Read(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadBufSize
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	p, err := m.live(id, "read")
	if err != nil {
		return err
	}
	if p.buf == nil {
		clear(buf)
		return nil
	}
	copy(buf, p.buf)
	return nil
}

// Borrow implements Store: it returns the page's backing slice, which a
// later Write overwrites in place. A page never written lends zeros.
func (m *Mem) Borrow(id PageID) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	p, err := m.live(id, "borrow")
	if err != nil {
		return nil, err
	}
	if p.buf == nil {
		return zeros[:], nil
	}
	return p.buf, nil
}

// Write implements Store.
func (m *Mem) Write(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadBufSize
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, err := m.live(id, "write")
	if err != nil {
		return err
	}
	if p.buf == nil {
		p.buf = make([]byte, PageSize)
	}
	copy(p.buf, buf)
	return nil
}

// Free implements Store; see Mem for what becomes of the page's buffer.
func (m *Mem) Free(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, err := m.live(id, "free")
	if err != nil {
		return err
	}
	p.live = false
	m.free = append(m.free, id)
	return nil
}

// NumPages implements Store.
func (m *Mem) NumPages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages) - len(m.free)
}

// Buffers returns the number of 4 KiB buffers m holds: one per page ever
// written, freed pages' kept buffers included.
func (m *Mem) Buffers() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for i := range m.pages {
		if m.pages[i].buf != nil {
			n++
		}
	}
	return n
}

// Close implements Store.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.pages = nil
	m.free = nil
	return nil
}

// NewVersioned returns inner unchanged. It is kept only because the
// bench/ harness builds its stores through it; nothing in this module
// calls it.
func NewVersioned(inner Store) Store { return inner }

// Bytes returns the total live storage in bytes (NumPages × PageSize).
// Storage-cost experiments (Fig. 8) read this.
func Bytes(s Store) int64 {
	return int64(s.NumPages()) * PageSize
}
