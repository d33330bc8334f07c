// Package pagestore provides the disk-page abstraction every index and file
// in this repository is built on: fixed 4096-byte pages addressed by PageID.
//
// Mem is the backing store. Counting wraps it and tallies page accesses so
// experiments can charge the paper's 10 ms per node access. Caching lives
// a layer up, in package bufpool. No store here outlives its process: an
// SAE party survives a restart through core.DurableSystem's checkpoint
// plus WAL.
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
// A freed page keeps its buffer: Allocate hands the most recently freed
// id back with that buffer zeroed, so a structure that frees and
// allocates at the same rate (a heap file under churn) allocates no
// memory and makes no garbage. The buffer may be lent again under a new
// id, so a borrower must be done with a page's bytes before its
// structure lock lets the page be freed.
type Mem struct {
	mu     sync.RWMutex
	pages  [][]byte
	free   []freed
	closed bool
}

// freed is a freed page id with the buffer it held.
type freed struct {
	id  PageID
	buf []byte
}

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
		f := m.free[n-1]
		m.free = m.free[:n-1]
		clear(f.buf)
		m.pages[f.id] = f.buf
		return f.id, nil
	}
	id := PageID(len(m.pages))
	m.pages = append(m.pages, make([]byte, PageSize))
	return id, nil
}

// Read implements Store.
func (m *Mem) Read(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadBufSize
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrStoreClosed
	}
	if int(id) >= len(m.pages) || m.pages[id] == nil {
		return fmt.Errorf("%w: read %d", ErrBadPageID, id)
	}
	copy(buf, m.pages[id])
	return nil
}

// Borrow implements Store: it returns the page's backing slice, which a
// later Write overwrites in place.
func (m *Mem) Borrow(id PageID) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrStoreClosed
	}
	if int(id) >= len(m.pages) || m.pages[id] == nil {
		return nil, fmt.Errorf("%w: borrow %d", ErrBadPageID, id)
	}
	return m.pages[id], nil
}

// Write implements Store.
func (m *Mem) Write(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadBufSize
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	if int(id) >= len(m.pages) || m.pages[id] == nil {
		return fmt.Errorf("%w: write %d", ErrBadPageID, id)
	}
	copy(m.pages[id], buf)
	return nil
}

// Free implements Store; see Mem for what becomes of the page's buffer.
func (m *Mem) Free(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	if int(id) >= len(m.pages) || m.pages[id] == nil {
		return fmt.Errorf("%w: free %d", ErrBadPageID, id)
	}
	m.free = append(m.free, freed{id: id, buf: m.pages[id]})
	m.pages[id] = nil
	return nil
}

// NumPages implements Store.
func (m *Mem) NumPages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages) - len(m.free)
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
