package bufpool

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"sae/internal/exec"
	"sae/internal/pagestore"
)

// Table is a tree's node table, the authority for its nodes: each node is
// a Go object of type N found by its page id. The tree's store allocates
// the ids, so page counts and storage sizes are those of a paged tree, but
// the store holds no bytes for a node, and nothing is encoded, copied or
// decoded.
//
// The accounting rule: every node access is charged as the page access it
// stands for, to the request's exec.Context and, when the store keeps
// counters (pagestore.Accountant), to the store. Get is a read, Put a
// write, Allocate an allocation and Free a free, so the paper's
// node-access counts are those of a disk-resident tree.
//
// A Table takes no lock. Its tree's owner holds a write lock around every
// method but Get, Len and Reads and around every change to a node, and at
// least a read lock around Get. Readers share the nodes Get returns and must not change
// them.
type Table[N any] struct {
	store pagestore.Store
	acct  pagestore.Accountant // nil when the store keeps no counters
	nodes map[pagestore.PageID]N
	reads atomic.Int64
	// spare holds the ids Reserve took and Take has not handed out yet,
	// last to hand out first.
	spare []pagestore.PageID
}

// NewTable returns an empty table whose node ids come from store.
func NewTable[N any](store pagestore.Store) *Table[N] {
	acct, _ := store.(pagestore.Accountant)
	return &Table[N]{store: store, acct: acct, nodes: make(map[pagestore.PageID]N)}
}

// Get returns node id, charging one read.
func (t *Table[N]) Get(ctx *exec.Context, id pagestore.PageID) (N, error) {
	n, ok := t.nodes[id]
	if !ok {
		return n, fmt.Errorf("%w: no node %d", pagestore.ErrBadPageID, id)
	}
	t.reads.Add(1)
	if t.acct != nil {
		t.acct.AccountRead(id)
	}
	ctx.AccountRead()
	return n, nil
}

// Put makes n the node at id, charging one write. A tree puts a node
// after every change to it, where a paged tree would write its page.
func (t *Table[N]) Put(ctx *exec.Context, id pagestore.PageID, n N) {
	t.nodes[id] = n
	if t.acct != nil {
		t.acct.AccountWrite(id)
	}
	ctx.AccountWrite()
}

// Allocate takes a fresh page id from the store, charging one
// allocation. The id holds no node until it is Put.
func (t *Table[N]) Allocate(ctx *exec.Context) (pagestore.PageID, error) {
	id, err := t.store.Allocate()
	if err != nil {
		return id, err
	}
	ctx.AccountAlloc()
	return id, nil
}

// Free drops node id and returns its page id to the store, charging one
// free.
func (t *Table[N]) Free(ctx *exec.Context, id pagestore.PageID) error {
	if err := t.store.Free(id); err != nil {
		return err
	}
	delete(t.nodes, id)
	ctx.AccountFree()
	return nil
}

// Reserve allocates k page ids for the nodes an operation will make,
// before it changes any node, so that a refused allocation cannot leave
// it half done. If the store refuses one, the ids already reserved go
// back and Reserve returns the refusal.
func (t *Table[N]) Reserve(ctx *exec.Context, k int) error {
	for range k {
		id, err := t.Allocate(ctx)
		if err != nil {
			return t.Release(ctx, err)
		}
		t.spare = append(t.spare, id)
	}
	slices.Reverse(t.spare) // Take hands them out in allocation order
	return nil
}

// Take returns the next reserved page id.
func (t *Table[N]) Take() pagestore.PageID {
	id := t.spare[len(t.spare)-1]
	t.spare = t.spare[:len(t.spare)-1]
	return id
}

// Release returns the ids still reserved to the store, for an operation
// that failed after Reserve, and passes its error on.
func (t *Table[N]) Release(ctx *exec.Context, err error) error {
	for _, id := range t.spare {
		err = errors.Join(err, t.Free(ctx, id))
	}
	t.spare = t.spare[:0]
	return err
}

// Len returns the number of nodes in the table.
func (t *Table[N]) Len() int { return len(t.nodes) }

// Reads returns the number of node reads Get has served.
func (t *Table[N]) Reads() int64 { return t.reads.Load() }
