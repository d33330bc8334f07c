// Package xbtree implements the XOR B-Tree (XB-Tree), the paper's core
// contribution: the disk-based index the trusted entity (TE) uses to compute
// a verification token (VT) for any range query in O(log n) node accesses,
// independently of the result size.
//
// Each distinct search key appears exactly once in the whole tree (it is a
// B-tree, not a B+-tree). An entry e = <e.sk, e.L, e.X, e.c> carries the
// search key, a reference to the list of (id, digest) tuples whose records
// have that key, the XOR aggregate X, and a child pointer. The invariant is
//
//	e.X = e.L⊕ XOR (XOR over the entries of the node e.c points to of their X)
//
// so e.X equals the XOR of the digests of every tuple with search key in
// [e.sk, nextSk), where nextSk is the following entry's key. The first entry
// e0 of an internal node has only X and c; for leaves, e0 is implicit
// (X = 0, c = nil).
//
// Deletions are logical: a tuple is removed from its list and XORed out of
// the X values on its path, but an entry whose list becomes empty stays in
// the tree as a tombstone (its X contribution is zero). This keeps deletion
// O(log n) with no rebalancing, at the cost of space reclaimed only on
// rebuild — the trade production LSM/B-tree systems routinely make.
package xbtree

import (
	"errors"
	"fmt"

	"sae/internal/agg"
	"sae/internal/bufpool"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/pagestore"
	"sae/internal/record"
)

// Node layouts over 4096-byte pages, which set the fanout. Nodes live as
// objects in the tree's node table (bufpool.Table); each takes one page id
// of the store.
//
// Internal: [0] flags=0 | [1:3] count | [3:7] e0.c | [7:27] e0.X |
// [27:51] e0.agg | entries { sk 4 | lref 6 | X 20 | c 4 | listCount 4 |
// childAgg 24 } ...
//
// Leaf: [0] flags=1 | [1:3] count | entries { sk 4 | lref 6 | X 20 |
// listCount 4 } ...
//
// listCount is the number of live tuples in the entry's list; together with
// sk it determines the entry's own aggregate contribution agg.OfKey(sk,
// listCount) without reading the list page. childAgg (internal) / e0.agg
// summarize the whole subtree under the child pointer, so AggregateCtx can
// answer COUNT/SUM/MIN/MAX with zero list-page reads.
const (
	innerHeader = 27 + agg.Size // 51
	leafHeader  = 3
	innerEntry  = 4 + 6 + digest.Size + 4 + 4 + agg.Size // 62
	leafEntry   = 4 + 6 + digest.Size + 4                // 34
	// InnerCapacity is the maximum number of keyed entries per internal
	// node (e0 not counted).
	InnerCapacity = (pagestore.PageSize - innerHeader) / innerEntry // 65
	// LeafCapacity is the maximum number of entries per leaf node.
	LeafCapacity = (pagestore.PageSize - leafHeader) / leafEntry // 120
)

// ErrNotFound is returned by Delete when no tuple with the given key and id
// exists.
var ErrNotFound = errors.New("xbtree: tuple not found")

// Tree is a disk-based XB-Tree.
type Tree struct {
	nodes  *bufpool.Table[*xnode]
	lists  *lstore
	root   pagestore.PageID
	height int // 1 = root is a leaf
	tuples int
}

// UseCache does nothing; it is kept for the bench/ harness (see
// bufpool.Cache).
func (t *Tree) UseCache(*bufpool.Cache) {}

// NodeReads returns the number of node reads the tree has served.
func (t *Tree) NodeReads() int64 { return t.nodes.Reads() }

// entry is the in-memory form of a keyed entry.
type entry struct {
	sk        record.Key
	lref      listRef
	x         digest.Digest
	child     pagestore.PageID // InvalidPage in leaves
	listCount uint32           // live tuples in the entry's list
	childAgg  agg.Agg          // internal only: aggregate of child's subtree
}

// ownAgg is the aggregate contribution of the entry's own tuple list.
func (e *entry) ownAgg() agg.Agg { return agg.OfKey(e.sk, uint64(e.listCount)) }

// newEntries returns a node's entry slice of length n with room for
// one entry past the node's capacity: an insert appends before it splits,
// so a node's array is never regrown.
func newEntries(leaf bool, n int) []entry {
	if leaf {
		return make([]entry, n, LeafCapacity+1)
	}
	return make([]entry, n, InnerCapacity+1)
}

// xnode is one tree node, a page's worth of entries.
type xnode struct {
	leaf    bool
	e0X     digest.Digest    // internal only
	e0C     pagestore.PageID // internal only
	e0Agg   agg.Agg          // internal only: aggregate of e0's subtree
	entries []entry
}

// agg returns the node's XOR aggregate: e0.X ⊕ XOR of all entries' X. For a
// node N this equals the XOR of the digests of every tuple in N's subtree,
// which is what the parent entry's X must incorporate.
func (n *xnode) agg() digest.Digest {
	var acc digest.Accumulator
	if !n.leaf {
		acc.Add(n.e0X)
	}
	for i := range n.entries {
		acc.Add(n.entries[i].x)
	}
	return acc.Sum()
}

// aggAll returns the (COUNT, SUM, MIN, MAX) aggregate of every tuple in the
// node's subtree: each entry contributes its own list (OfKey(sk, listCount))
// plus its child subtree's annotation. Pure arithmetic, no I/O.
func (n *xnode) aggAll() agg.Agg {
	var a agg.Agg
	if !n.leaf {
		a = n.e0Agg
	}
	for i := range n.entries {
		e := &n.entries[i]
		a = a.Merge(e.ownAgg())
		if !n.leaf {
			a = a.Merge(e.childAgg)
		}
	}
	return a
}

// New creates an empty XB-Tree. Tree nodes and tuple-list pages are both
// allocated from store.
func New(store pagestore.Store) (*Tree, error) {
	t := newTree(store)
	t.height = 1
	id, err := t.allocNode(nil, &xnode{leaf: true})
	if err != nil {
		return nil, err
	}
	t.root = id
	return t, nil
}

func newTree(store pagestore.Store) *Tree {
	return &Tree{nodes: bufpool.NewTable[*xnode](store), lists: newLStore(store)}
}

// allocNode allocates a page id for n and puts it there.
func (t *Tree) allocNode(ctx *exec.Context, n *xnode) (pagestore.PageID, error) {
	id, err := t.nodes.Allocate(ctx)
	if err != nil {
		return 0, fmt.Errorf("xbtree: allocating node: %w", err)
	}
	t.nodes.Put(ctx, id, n)
	return id, nil
}

func (t *Tree) readNode(ctx *exec.Context, id pagestore.PageID) (*xnode, error) {
	n, err := t.nodes.Get(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("xbtree: reading node %d: %w", id, err)
	}
	return n, nil
}

// searchEntries returns (index of entry with sk == k, true) or (index of the
// first entry with sk > k, false).
func searchEntries(entries []entry, k record.Key) (int, bool) {
	lo, hi := 0, len(entries)
	for lo < hi {
		mid := (lo + hi) / 2
		if entries[mid].sk < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(entries) && entries[lo].sk == k {
		return lo, true
	}
	return lo, false
}

// InsertCtx adds a tuple with the given search key. If the key already
// exists anywhere in the tree, the tuple joins its list; otherwise a new
// entry is created at the leaf level, splitting nodes B-tree-style on
// overflow. Either way every X value on the tuple's root-to-entry path
// absorbs the tuple's digest, which costs O(height) node accesses. A
// failed allocation leaves the tree as it was.
func (t *Tree) InsertCtx(ctx *exec.Context, key record.Key, tup Tuple) error {
	promoted, _, _, _, err := t.insertRec(ctx, t.root, 2, key, tup)
	if err != nil {
		return err
	}
	if promoted != nil {
		oldRoot, err := t.readNode(ctx, t.root)
		if err != nil {
			return err
		}
		newRoot := &xnode{
			leaf:    false,
			e0C:     t.root,
			e0X:     oldRoot.agg(),
			e0Agg:   oldRoot.aggAll(),
			entries: append(newEntries(false, 0), *promoted),
		}
		id := t.nodes.Take()
		t.nodes.Put(ctx, id, newRoot)
		t.root = id
		t.height++
	}
	t.tuples++
	return nil
}

// insertRec inserts into the subtree rooted at id. It returns a promoted
// entry and its right-sibling node id when the node split, plus the change
// (delta) in this node's XOR aggregate as observed by the parent after the
// promoted entry has been removed from it, plus this node's new subtree
// aggregate annotation (same post-promotion view) so the parent refreshes
// its childAgg without extra reads.
//
// splits is the number of nodes the insert makes if this node splits: its
// right sibling, a new root above the root, and whatever a full parent's
// own split makes. A full leaf reserves them before anything changes.
func (t *Tree) insertRec(ctx *exec.Context, id pagestore.PageID, splits int, key record.Key, tup Tuple) (*entry, pagestore.PageID, digest.Digest, agg.Agg, error) {
	n, err := t.readNode(ctx, id)
	if err != nil {
		return nil, pagestore.InvalidPage, digest.Zero, agg.Agg{}, err
	}
	aggBefore := n.agg()

	if pos, ok := searchEntries(n.entries, key); ok {
		// Key exists here: extend its list and absorb the digest.
		newRef, err := t.lists.appendTuple(ctx, n.entries[pos].lref, tup)
		if err != nil {
			return nil, pagestore.InvalidPage, digest.Zero, agg.Agg{}, err
		}
		n.entries[pos].lref = newRef
		n.entries[pos].x = n.entries[pos].x.XOR(tup.Digest)
		n.entries[pos].listCount++
		t.nodes.Put(ctx, id, n)
		return nil, pagestore.InvalidPage, n.agg().XOR(aggBefore), n.aggAll(), nil
	} else if !n.leaf {
		// Descend: child pos-1 (or e0) covers keys below entries[pos].sk.
		childID := n.e0C
		applyTo := -1 // -1 means e0
		if pos > 0 {
			childID = n.entries[pos-1].child
			applyTo = pos - 1
		}
		childSplits := 1
		if len(n.entries) >= InnerCapacity {
			childSplits += splits
		}
		promoted, rightID, childDelta, childAgg, err := t.insertRec(ctx, childID, childSplits, key, tup)
		if err != nil {
			return nil, pagestore.InvalidPage, digest.Zero, agg.Agg{}, err
		}
		if applyTo == -1 {
			n.e0X = n.e0X.XOR(childDelta)
			n.e0Agg = childAgg
		} else {
			n.entries[applyTo].x = n.entries[applyTo].x.XOR(childDelta)
			n.entries[applyTo].childAgg = childAgg
		}
		if promoted == nil {
			t.nodes.Put(ctx, id, n)
			return nil, pagestore.InvalidPage, n.agg().XOR(aggBefore), n.aggAll(), nil
		}
		promoted.child = rightID
		n.entries = append(n.entries, entry{})
		copy(n.entries[pos+1:], n.entries[pos:])
		n.entries[pos] = *promoted
		if len(n.entries) <= InnerCapacity {
			t.nodes.Put(ctx, id, n)
			return nil, pagestore.InvalidPage, n.agg().XOR(aggBefore), n.aggAll(), nil
		}
		return t.splitInner(ctx, id, n, aggBefore)
	} else {
		// New key at the leaf level.
		if len(n.entries) >= LeafCapacity {
			if err := t.nodes.Reserve(ctx, splits); err != nil {
				return nil, pagestore.InvalidPage, digest.Zero, agg.Agg{}, fmt.Errorf("xbtree: allocating node: %w", err)
			}
		}
		lref, err := t.lists.alloc(ctx, []Tuple{tup})
		if err != nil {
			return nil, pagestore.InvalidPage, digest.Zero, agg.Agg{}, t.nodes.Release(ctx, err)
		}
		e := entry{sk: key, lref: lref, x: tup.Digest, child: pagestore.InvalidPage, listCount: 1}
		n.entries = append(n.entries, entry{})
		copy(n.entries[pos+1:], n.entries[pos:])
		n.entries[pos] = e
		if len(n.entries) <= LeafCapacity {
			t.nodes.Put(ctx, id, n)
			return nil, pagestore.InvalidPage, n.agg().XOR(aggBefore), n.aggAll(), nil
		}
		return t.splitLeaf(ctx, id, n, aggBefore)
	}
}

// splitLeaf splits an overflowing leaf, promoting the median entry. A leaf
// entry's X equals its L⊕, so the promoted entry's new X (which must also
// cover the right sibling it will point to) is its old X XOR the right
// entries' X values.
func (t *Tree) splitLeaf(ctx *exec.Context, id pagestore.PageID, n *xnode, aggBefore digest.Digest) (*entry, pagestore.PageID, digest.Digest, agg.Agg, error) {
	mid := len(n.entries) / 2
	promoted := n.entries[mid]

	right := &xnode{leaf: true, entries: append(newEntries(true, 0), n.entries[mid+1:]...)}
	rightID := t.nodes.Take()
	t.nodes.Put(ctx, rightID, right)
	promoted.x = promoted.x.XOR(right.agg())
	promoted.child = rightID
	promoted.childAgg = right.aggAll()

	n.entries = n.entries[:mid]
	t.nodes.Put(ctx, id, n)
	return &promoted, rightID, n.agg().XOR(aggBefore), n.aggAll(), nil
}

// splitInner splits an overflowing internal node. The promoted entry keeps
// its list but its subtree becomes the new right node, whose e0 must cover
// the promoted entry's former child; computing that e0.X requires the
// promoted entry's L⊕, read from its list page (one extra access per split).
//
// That read is the one step after the reservation that can fail, and only
// on a closed store or a dangling list reference. The nodes below, already
// split, are not restored then.
func (t *Tree) splitInner(ctx *exec.Context, id pagestore.PageID, n *xnode, aggBefore digest.Digest) (*entry, pagestore.PageID, digest.Digest, agg.Agg, error) {
	mid := len(n.entries) / 2
	promoted := n.entries[mid]

	lxor, err := t.lists.xorOf(ctx, promoted.lref)
	if err != nil {
		return nil, pagestore.InvalidPage, digest.Zero, agg.Agg{}, t.nodes.Release(ctx, err)
	}
	right := &xnode{
		leaf:    false,
		e0C:     promoted.child,
		e0X:     promoted.x.XOR(lxor), // agg of the subtree under the promoted entry
		e0Agg:   promoted.childAgg,
		entries: append(newEntries(false, 0), n.entries[mid+1:]...),
	}
	rightID := t.nodes.Take()
	t.nodes.Put(ctx, rightID, right)
	promoted.x = lxor.XOR(right.agg())
	promoted.child = rightID
	promoted.childAgg = right.aggAll()

	n.entries = n.entries[:mid]
	t.nodes.Put(ctx, id, n)
	return &promoted, rightID, n.agg().XOR(aggBefore), n.aggAll(), nil
}

// DeleteCtx removes the tuple with the given key and id. The entry's list
// shrinks and the digest is XORed out of the path; entries with empty
// lists remain as tombstones (their X contribution is zero), so the tree
// never restructures on delete.
func (t *Tree) DeleteCtx(ctx *exec.Context, key record.Key, id record.ID) error {
	_, _, found, err := t.deleteRec(ctx, t.root, key, id)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: key=%d id=%d", ErrNotFound, key, id)
	}
	t.tuples--
	return nil
}

// deleteRec returns the removed tuple's digest (so ancestors can XOR it out
// of their X values), the subtree's new aggregate annotation, and whether
// the tuple was found. All list tuples share the entry's key, so the
// aggregate stays exact under listCount-- (an emptied list contributes the
// zero aggregate, matching the tombstone's zero X contribution).
func (t *Tree) deleteRec(ctx *exec.Context, nodeID pagestore.PageID, key record.Key, id record.ID) (digest.Digest, agg.Agg, bool, error) {
	n, err := t.readNode(ctx, nodeID)
	if err != nil {
		return digest.Zero, agg.Agg{}, false, err
	}
	pos, ok := searchEntries(n.entries, key)
	if ok {
		d, newRef, err := t.lists.removeTuple(ctx, n.entries[pos].lref, id)
		if err != nil {
			if errors.Is(err, errTupleNotFound) {
				return digest.Zero, agg.Agg{}, false, nil
			}
			return digest.Zero, agg.Agg{}, false, err
		}
		n.entries[pos].lref = newRef
		n.entries[pos].x = n.entries[pos].x.XOR(d)
		n.entries[pos].listCount--
		t.nodes.Put(ctx, nodeID, n)
		return d, n.aggAll(), true, nil
	}
	if n.leaf {
		return digest.Zero, agg.Agg{}, false, nil
	}
	childID := n.e0C
	if pos > 0 {
		childID = n.entries[pos-1].child
	}
	d, childAgg, found, err := t.deleteRec(ctx, childID, key, id)
	if err != nil || !found {
		return digest.Zero, agg.Agg{}, found, err
	}
	if pos > 0 {
		n.entries[pos-1].x = n.entries[pos-1].x.XOR(d)
		n.entries[pos-1].childAgg = childAgg
	} else {
		n.e0X = n.e0X.XOR(d)
		n.e0Agg = childAgg
	}
	t.nodes.Put(ctx, nodeID, n)
	return d, n.aggAll(), true, nil
}

// GenerateVTCtx computes the verification token for the range [lo, hi]:
// the XOR of the digests of every tuple whose search key falls in the
// range. This is the algorithm of the paper's Figure 4 (see cover). Leaf
// entries use their stored X instead of re-reading their list (a leaf
// entry's X equals its L⊕); only partially covered internal entries read a
// list page, which happens at most once per boundary.
func (t *Tree) GenerateVTCtx(ctx *exec.Context, lo, hi record.Key) (digest.Digest, error) {
	if lo > hi {
		return digest.Zero, nil
	}
	var acc digest.Accumulator
	err := t.cover(ctx, t.root, lo, hi,
		func(e *entry) { acc.Add(e.x) },
		func(e *entry, leaf bool) error {
			if leaf {
				acc.Add(e.x) // leaf X == L⊕
				return nil
			}
			lx, err := t.lists.xorOf(ctx, e.lref)
			if err != nil {
				return err
			}
			acc.Add(lx)
			return nil
		})
	if err != nil {
		return digest.Zero, err
	}
	return acc.Sum(), nil
}

// AggregateCtx computes the trusted aggregate for the range [lo, hi] by the
// same boundary recursion as GenerateVTCtx, substituting the (COUNT, SUM,
// MIN, MAX) annotations for the XOR values: a fully covered entry folds in
// its own list aggregate plus its child annotation, a partially covered
// entry folds only its list aggregate. O(log n) node accesses and — unlike
// VT generation — zero list-page reads, because OfKey(sk, listCount)
// replaces the list XOR.
func (t *Tree) AggregateCtx(ctx *exec.Context, lo, hi record.Key) (agg.Agg, error) {
	if lo > hi {
		return agg.Agg{}, nil
	}
	var a agg.Agg
	err := t.cover(ctx, t.root, lo, hi,
		func(e *entry) { a = a.Merge(e.ownAgg()).Merge(e.childAgg) },
		func(e *entry, _ bool) error { a = a.Merge(e.ownAgg()); return nil })
	if err != nil {
		return agg.Agg{}, err
	}
	return a, nil
}

// cover is the boundary recursion of the paper's Figure 4 over the
// subtree at id. It walks the virtual entry sequence e0, e1, ..., e_{f-1}
// with the fictitious bounds e0.sk = -∞ and ef.sk = +∞. An entry whose
// list and whole subtree lie inside [lo, hi] goes to whole; an entry of
// which only its own list qualifies goes to own; and the walk recurses
// where a query boundary falls strictly inside (ei.sk, ei+1.sk). e0 has no
// list, so it is only ever recursed into; a leaf has no e0.
func (t *Tree) cover(ctx *exec.Context, id pagestore.PageID, lo, hi record.Key, whole func(e *entry), own func(e *entry, leaf bool) error) error {
	n, err := t.readNode(ctx, id)
	if err != nil {
		return err
	}
	f := len(n.entries)
	first := 0
	if !n.leaf {
		first = -1
	}
	for i := first; i < f; i++ {
		sk, skValid := record.Key(0), i >= 0 // false ⇒ sk is -∞
		child := n.e0C
		if skValid {
			e := &n.entries[i]
			sk, child = e.sk, e.child
			if lo <= sk {
				switch {
				case i+1 < f && hi >= n.entries[i+1].sk:
					whole(e)
				case hi >= sk:
					if err := own(e, n.leaf); err != nil {
						return err
					}
				}
			}
		}
		nextSk, nextValid := record.Key(0), i+1 < f // false ⇒ +∞
		if nextValid {
			nextSk = n.entries[i+1].sk
		}
		loInGap := (!skValid || lo > sk) && (!nextValid || lo < nextSk)
		hiInGap := (!skValid || hi > sk) && (!nextValid || hi < nextSk)
		if (loInGap || hiInGap) && child != pagestore.InvalidPage {
			if err := t.cover(ctx, child, lo, hi, whole, own); err != nil {
				return err
			}
		}
	}
	return nil
}

// Height returns the number of levels (1 = the root is a leaf).
func (t *Tree) Height() int { return t.height }

// NodeCount returns the number of tree nodes (excluding list pages).
func (t *Tree) NodeCount() int { return t.nodes.Len() }

// Tuples returns the number of live tuples.
func (t *Tree) Tuples() int { return t.tuples }

// Bytes returns the TE's total storage: tree nodes plus list pages.
func (t *Tree) Bytes() int64 {
	return int64(t.nodes.Len()+t.lists.pages) * pagestore.PageSize
}
