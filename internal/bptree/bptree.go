// Package bptree implements the conventional disk-based B+-tree the service
// provider uses in SAE to execute range queries. It maps search keys to
// record identifiers (RIDs) in the heap file.
//
// Entries are composite (key, RID) pairs and internal separators store the
// full composite, so duplicate search keys are handled exactly (the same
// heap-pointer tiebreak production systems use). Node layouts are
// byte-accurate over 4096-byte pages, which is what gives the B+-tree its
// fanout advantage over the MB-Tree in the paper's Figure 6.
package bptree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sae/internal/agg"
	"sae/internal/bufpool"
	"sae/internal/exec"
	"sae/internal/heapfile"
	"sae/internal/pagestore"
	"sae/internal/record"
)

// Entry is one indexed item: a search key plus the RID of its record.
type Entry struct {
	Key record.Key
	RID heapfile.RID
}

// Compare orders entries by key, then by RID (page, slot). The RID tiebreak
// makes every entry unique, so splits and range boundaries are exact even
// with duplicate keys.
func Compare(a, b Entry) int {
	switch {
	case a.Key < b.Key:
		return -1
	case a.Key > b.Key:
		return 1
	case a.RID.Page < b.RID.Page:
		return -1
	case a.RID.Page > b.RID.Page:
		return 1
	case a.RID.Slot < b.RID.Slot:
		return -1
	case a.RID.Slot > b.RID.Slot:
		return 1
	}
	return 0
}

// Page layout constants. A leaf page is
//
//	[0] flags (1 = leaf) | [1:3] count | [3:7] next-leaf id | entries...
//
// with 10-byte entries (key 4, rid page 4, rid slot 2). An internal page is
//
//	[0] flags (0) | [1:3] count | [3:7] child0 | [7:31] agg0 |
//	{separator 10, child 4, agg 24}...
//
// Internal entries carry the (count, sum, min, max) aggregate annotation of
// the child subtree they point to, maintained incrementally on every
// insert/delete/split and during bulk load. The annotations are what let
// AggregateCtx answer COUNT/SUM/MIN/MAX over any key range from O(log n)
// nodes instead of an O(result) leaf scan.
const (
	headerSize      = 7
	leafEntry       = 10
	innerHeaderSize = headerSize + agg.Size // 31
	innerEntry      = 14 + agg.Size         // 38
	// LeafCapacity is the maximum number of entries per leaf page.
	LeafCapacity = (pagestore.PageSize - headerSize) / leafEntry // 408
	// InnerCapacity is the maximum number of separators per internal page
	// (children = separators + 1).
	InnerCapacity = (pagestore.PageSize - innerHeaderSize) / innerEntry // 106
)

// ErrNotFound is returned by Delete when the exact (key, rid) entry is not
// in the tree.
var ErrNotFound = errors.New("bptree: entry not found")

// Tree is a disk-based B+-tree.
type Tree struct {
	io     *bufpool.IO
	root   pagestore.PageID
	height int // 1 = root is a leaf
	count  int // live entries
	nodes  int // allocated nodes
}

// node is the decoded in-memory form of one page.
type node struct {
	leaf     bool
	next     pagestore.PageID // leaf-level sibling chain
	entries  []Entry          // leaf: data entries; internal: separators
	children []pagestore.PageID
	// aggs (internal nodes only) is aligned with children: aggs[i]
	// summarizes the keys in children[i]'s subtree.
	aggs []agg.Agg
}

// aggAll returns the aggregate of every key in the node's subtree: a leaf
// folds its own entries, an internal node folds the stored child
// annotations (pure arithmetic, no I/O).
func (n *node) aggAll() agg.Agg {
	var a agg.Agg
	if n.leaf {
		for i := range n.entries {
			a = a.Add(n.entries[i].Key)
		}
		return a
	}
	for i := range n.aggs {
		a = a.Merge(n.aggs[i])
	}
	return a
}

// UseCache attaches a decoded-node cache to the tree's read/write path
// (nil detaches). Typically called right after New/Bulkload/Open so the
// build itself runs uncached.
func (t *Tree) UseCache(c *bufpool.Cache) { t.io.SetCache(c) }

// New creates an empty tree whose root is an empty leaf.
func New(store pagestore.Store) (*Tree, error) {
	t := &Tree{io: bufpool.NewIO(store, nil), height: 1}
	root, err := t.allocNode(nil, &node{leaf: true, next: pagestore.InvalidPage})
	if err != nil {
		return nil, err
	}
	t.root = root
	return t, nil
}

// Bulkload builds a tree from entries, which must be sorted by Compare. All
// leaves except possibly the last are packed full, mirroring how the data
// owner's initial transfer is indexed.
func Bulkload(store pagestore.Store, entries []Entry) (*Tree, error) {
	for i := 1; i < len(entries); i++ {
		if Compare(entries[i-1], entries[i]) > 0 {
			return nil, fmt.Errorf("bptree: bulkload input not sorted at %d", i)
		}
	}
	t := &Tree{io: bufpool.NewIO(store, nil)}
	if len(entries) == 0 {
		return New(store)
	}

	// Build the leaf level.
	type built struct {
		id  pagestore.PageID
		min Entry
		agg agg.Agg
	}
	var level []built
	var prevID pagestore.PageID = pagestore.InvalidPage
	var prev *node
	for start := 0; start < len(entries); start += LeafCapacity {
		end := start + LeafCapacity
		if end > len(entries) {
			end = len(entries)
		}
		n := &node{leaf: true, next: pagestore.InvalidPage}
		n.entries = append(n.entries, entries[start:end]...)
		id, err := t.allocNode(nil, n)
		if err != nil {
			return nil, err
		}
		if prev != nil {
			prev.next = id
			if err := t.writeNode(nil, prevID, prev); err != nil {
				return nil, err
			}
		}
		prevID, prev = id, n
		level = append(level, built{id: id, min: entries[start], agg: n.aggAll()})
	}

	// Build internal levels until a single root remains.
	t.height = 1
	for len(level) > 1 {
		var next []built
		for start := 0; start < len(level); start += InnerCapacity + 1 {
			end := start + InnerCapacity + 1
			if end > len(level) {
				end = len(level)
			}
			group := level[start:end]
			n := &node{leaf: false}
			n.children = append(n.children, group[0].id)
			n.aggs = append(n.aggs, group[0].agg)
			for _, b := range group[1:] {
				n.entries = append(n.entries, b.min)
				n.children = append(n.children, b.id)
				n.aggs = append(n.aggs, b.agg)
			}
			id, err := t.allocNode(nil, n)
			if err != nil {
				return nil, err
			}
			next = append(next, built{id: id, min: group[0].min, agg: n.aggAll()})
		}
		level = next
		t.height++
	}
	t.root = level[0].id
	t.count = len(entries)
	return t, nil
}

// allocNode allocates a page for n and writes it.
func (t *Tree) allocNode(ctx *exec.Context, n *node) (pagestore.PageID, error) {
	id, err := t.io.Allocate(ctx)
	if err != nil {
		return 0, fmt.Errorf("bptree: allocating node: %w", err)
	}
	t.nodes++
	if err := t.writeNode(ctx, id, n); err != nil {
		return 0, err
	}
	return id, nil
}

func (t *Tree) writeNode(ctx *exec.Context, id pagestore.PageID, n *node) error {
	if err := bufpool.WriteNode(t.io, ctx, id, n, encodeNode); err != nil {
		return fmt.Errorf("bptree: writing node %d: %w", id, err)
	}
	return nil
}

func (t *Tree) readNode(ctx *exec.Context, id pagestore.PageID) (*node, error) {
	n, err := bufpool.ReadNode(t.io, ctx, id, decodeNode)
	if err != nil {
		return nil, fmt.Errorf("bptree: reading node %d: %w", id, err)
	}
	return n, nil
}

func encodeNode(buf []byte, n *node) {
	for i := range buf {
		buf[i] = 0
	}
	if n.leaf {
		buf[0] = 1
		binary.BigEndian.PutUint16(buf[1:3], uint16(len(n.entries)))
		binary.BigEndian.PutUint32(buf[3:7], uint32(n.next))
		off := headerSize
		for _, e := range n.entries {
			putEntry(buf[off:off+leafEntry], e)
			off += leafEntry
		}
		return
	}
	buf[0] = 0
	binary.BigEndian.PutUint16(buf[1:3], uint16(len(n.entries)))
	binary.BigEndian.PutUint32(buf[3:7], uint32(n.children[0]))
	n.aggs[0].PutBytes(buf[headerSize:innerHeaderSize])
	off := innerHeaderSize
	for i, e := range n.entries {
		putEntry(buf[off:off+leafEntry], e)
		binary.BigEndian.PutUint32(buf[off+leafEntry:off+leafEntry+4], uint32(n.children[i+1]))
		n.aggs[i+1].PutBytes(buf[off+leafEntry+4 : off+innerEntry])
		off += innerEntry
	}
}

func decodeNode(buf []byte) *node {
	n := &node{leaf: buf[0] == 1}
	count := int(binary.BigEndian.Uint16(buf[1:3]))
	if n.leaf {
		n.next = pagestore.PageID(binary.BigEndian.Uint32(buf[3:7]))
		n.entries = make([]Entry, count)
		off := headerSize
		for i := 0; i < count; i++ {
			n.entries[i] = getEntry(buf[off : off+leafEntry])
			off += leafEntry
		}
		return n
	}
	n.entries = make([]Entry, count)
	n.children = make([]pagestore.PageID, 0, count+1)
	n.aggs = make([]agg.Agg, 0, count+1)
	n.children = append(n.children, pagestore.PageID(binary.BigEndian.Uint32(buf[3:7])))
	n.aggs = append(n.aggs, agg.FromBytes(buf[headerSize:innerHeaderSize]))
	off := innerHeaderSize
	for i := 0; i < count; i++ {
		n.entries[i] = getEntry(buf[off : off+leafEntry])
		n.children = append(n.children, pagestore.PageID(binary.BigEndian.Uint32(buf[off+leafEntry:off+leafEntry+4])))
		n.aggs = append(n.aggs, agg.FromBytes(buf[off+leafEntry+4:off+innerEntry]))
		off += innerEntry
	}
	return n
}

func putEntry(buf []byte, e Entry) {
	binary.BigEndian.PutUint32(buf[0:4], uint32(e.Key))
	binary.BigEndian.PutUint32(buf[4:8], uint32(e.RID.Page))
	binary.BigEndian.PutUint16(buf[8:10], e.RID.Slot)
}

func getEntry(buf []byte) Entry {
	return Entry{
		Key: record.Key(binary.BigEndian.Uint32(buf[0:4])),
		RID: heapfile.RID{
			Page: pagestore.PageID(binary.BigEndian.Uint32(buf[4:8])),
			Slot: binary.BigEndian.Uint16(buf[8:10]),
		},
	}
}

// upperBound returns the number of entries in s that are <= e.
func upperBound(s []Entry, e Entry) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if Compare(s[mid], e) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBoundKey returns the index of the first entry whose key is >= k.
func lowerBoundKey(s []Entry, k record.Key) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid].Key < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Range returns the RIDs of all entries with lo <= key <= hi with no
// request context; see RangeCtx.
func (t *Tree) Range(lo, hi record.Key) ([]heapfile.RID, error) {
	return t.RangeCtx(nil, lo, hi)
}

// RangeCtx returns the RIDs of all entries with lo <= key <= hi, in key
// order, charging every node access to ctx.
func (t *Tree) RangeCtx(ctx *exec.Context, lo, hi record.Key) ([]heapfile.RID, error) {
	return t.RangeAppendCtx(ctx, lo, hi, nil)
}

// RangeAppendCtx is RangeCtx appending into a caller-provided buffer
// (out[:0]-style reuse), so a serve loop recycling one RID buffer across
// queries performs the leaf scan without growing a fresh slice every
// time. Traversal and node accesses are identical to RangeCtx — it IS
// RangeCtx.
func (t *Tree) RangeAppendCtx(ctx *exec.Context, lo, hi record.Key, out []heapfile.RID) ([]heapfile.RID, error) {
	if lo > hi {
		return out, nil
	}
	id := t.root
	for level := t.height; level > 1; level-- {
		n, err := t.readNode(ctx, id)
		if err != nil {
			return out, err
		}
		id = n.children[lowerBoundKey(n.entries, lo)]
	}
	for id != pagestore.InvalidPage {
		n, err := t.readNode(ctx, id)
		if err != nil {
			return out, err
		}
		i := lowerBoundKey(n.entries, lo)
		for ; i < len(n.entries); i++ {
			if n.entries[i].Key > hi {
				return out, nil
			}
			out = append(out, n.entries[i].RID)
		}
		id = n.next
	}
	return out, nil
}

// RangeBurstCtx plans a burst of range queries in one pass: query qi
// (bounds los[qi]..his[qi], charged to ctxs[qi]) appends its RIDs into a
// shared arena, and the returned offsets give query qi's run as
// arena[offs[qi]:offs[qi+1]]. Offsets — not sub-slices — are returned
// because the arena reallocates as it grows; callers materialize the
// per-query views only after the whole burst is planned.
//
// Each descent is exactly RangeAppendCtx (same node accesses, charged to
// that query's own context), so per-query access counts match
// per-request planning bit for bit; the burst's win is the shared arena
// (one growing buffer instead of per-query slices) and the back-to-back
// descents hitting a warm decoded-node cache. arena and offs are reused
// via the usual out[:0] convention.
func (t *Tree) RangeBurstCtx(ctxs []*exec.Context, los, his []record.Key, arena []heapfile.RID, offs []int) ([]heapfile.RID, []int, error) {
	offs = append(offs[:0], len(arena))
	for qi := range los {
		var err error
		arena, err = t.RangeAppendCtx(ctxs[qi], los[qi], his[qi], arena)
		if err != nil {
			return arena, offs, err
		}
		offs = append(offs, len(arena))
	}
	return arena, offs, nil
}

// Insert adds an entry with no request context; see InsertCtx.
func (t *Tree) Insert(e Entry) error { return t.InsertCtx(nil, e) }

// InsertCtx adds an entry in O(height) node accesses, splitting on
// overflow. Every node on the path is rewritten so its parent's aggregate
// annotation stays exact.
func (t *Tree) InsertCtx(ctx *exec.Context, e Entry) error {
	sep, right, selfAgg, rightAgg, err := t.insertAt(ctx, t.root, t.height, e)
	if err != nil {
		return err
	}
	if right != pagestore.InvalidPage {
		// Root split: grow the tree by one level.
		n := &node{
			leaf:     false,
			entries:  []Entry{sep},
			children: []pagestore.PageID{t.root, right},
			aggs:     []agg.Agg{selfAgg, rightAgg},
		}
		id, err := t.allocNode(ctx, n)
		if err != nil {
			return err
		}
		t.root = id
		t.height++
	}
	t.count++
	return nil
}

// insertAt inserts e into the subtree rooted at id (at the given level,
// 1 = leaf). If the node split, it returns the separator to push up and the
// new right sibling's id; otherwise right is InvalidPage. selfAgg (and, on
// a split, rightAgg) report the subtree aggregates after the insert, so
// the parent can refresh its annotations without extra reads.
func (t *Tree) insertAt(ctx *exec.Context, id pagestore.PageID, level int, e Entry) (sep Entry, right pagestore.PageID, selfAgg, rightAgg agg.Agg, err error) {
	n, err := t.readNode(ctx, id)
	if err != nil {
		return Entry{}, pagestore.InvalidPage, agg.Agg{}, agg.Agg{}, err
	}
	if level == 1 {
		pos := upperBound(n.entries, e)
		n.entries = append(n.entries, Entry{})
		copy(n.entries[pos+1:], n.entries[pos:])
		n.entries[pos] = e
		if len(n.entries) <= LeafCapacity {
			return Entry{}, pagestore.InvalidPage, n.aggAll(), agg.Agg{}, t.writeNode(ctx, id, n)
		}
		return t.splitLeaf(ctx, id, n)
	}
	ci := upperBound(n.entries, e)
	childSep, childRight, childAgg, childRightAgg, err := t.insertAt(ctx, n.children[ci], level-1, e)
	if err != nil {
		return Entry{}, pagestore.InvalidPage, agg.Agg{}, agg.Agg{}, err
	}
	n.aggs[ci] = childAgg
	if childRight != pagestore.InvalidPage {
		n.entries = append(n.entries, Entry{})
		copy(n.entries[ci+1:], n.entries[ci:])
		n.entries[ci] = childSep
		n.children = append(n.children, pagestore.InvalidPage)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = childRight
		n.aggs = append(n.aggs, agg.Agg{})
		copy(n.aggs[ci+2:], n.aggs[ci+1:])
		n.aggs[ci+1] = childRightAgg
		if len(n.entries) > InnerCapacity {
			return t.splitInner(ctx, id, n)
		}
	}
	return Entry{}, pagestore.InvalidPage, n.aggAll(), agg.Agg{}, t.writeNode(ctx, id, n)
}

func (t *Tree) splitLeaf(ctx *exec.Context, id pagestore.PageID, n *node) (Entry, pagestore.PageID, agg.Agg, agg.Agg, error) {
	mid := len(n.entries) / 2
	rightNode := &node{leaf: true, next: n.next}
	rightNode.entries = append(rightNode.entries, n.entries[mid:]...)
	rightID, err := t.allocNode(ctx, rightNode)
	if err != nil {
		// n was mutated in memory but never persisted; drop the cached copy.
		t.io.Discard(id)
		return Entry{}, pagestore.InvalidPage, agg.Agg{}, agg.Agg{}, err
	}
	n.entries = n.entries[:mid]
	n.next = rightID
	if err := t.writeNode(ctx, id, n); err != nil {
		return Entry{}, pagestore.InvalidPage, agg.Agg{}, agg.Agg{}, err
	}
	return rightNode.entries[0], rightID, n.aggAll(), rightNode.aggAll(), nil
}

func (t *Tree) splitInner(ctx *exec.Context, id pagestore.PageID, n *node) (Entry, pagestore.PageID, agg.Agg, agg.Agg, error) {
	mid := len(n.entries) / 2
	sep := n.entries[mid]
	rightNode := &node{leaf: false}
	rightNode.entries = append(rightNode.entries, n.entries[mid+1:]...)
	rightNode.children = append(rightNode.children, n.children[mid+1:]...)
	rightNode.aggs = append(rightNode.aggs, n.aggs[mid+1:]...)
	rightID, err := t.allocNode(ctx, rightNode)
	if err != nil {
		t.io.Discard(id)
		return Entry{}, pagestore.InvalidPage, agg.Agg{}, agg.Agg{}, err
	}
	n.entries = n.entries[:mid]
	n.children = n.children[:mid+1]
	n.aggs = n.aggs[:mid+1]
	if err := t.writeNode(ctx, id, n); err != nil {
		return Entry{}, pagestore.InvalidPage, agg.Agg{}, agg.Agg{}, err
	}
	return sep, rightID, n.aggAll(), rightNode.aggAll(), nil
}

// Delete removes the exact (key, rid) entry with no request context; see
// DeleteCtx.
func (t *Tree) Delete(e Entry) error { return t.DeleteCtx(nil, e) }

// DeleteCtx removes the exact (key, rid) entry. Underfull nodes are left in
// place (the lazy-deletion policy common in production B+-trees); an empty
// leaf stays in the sibling chain and is skipped by scans. The descent is
// recursive so that every ancestor's aggregate annotation is refreshed on
// the way back up.
func (t *Tree) DeleteCtx(ctx *exec.Context, e Entry) error {
	if _, err := t.deleteAt(ctx, t.root, t.height, e); err != nil {
		return err
	}
	t.count--
	return nil
}

// deleteAt removes e from the subtree rooted at id, returning the subtree's
// aggregate after the removal so the parent can refresh its annotation.
func (t *Tree) deleteAt(ctx *exec.Context, id pagestore.PageID, level int, e Entry) (agg.Agg, error) {
	n, err := t.readNode(ctx, id)
	if err != nil {
		return agg.Agg{}, err
	}
	if level == 1 {
		for i, cur := range n.entries {
			if Compare(cur, e) == 0 {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				return n.aggAll(), t.writeNode(ctx, id, n)
			}
		}
		return agg.Agg{}, fmt.Errorf("%w: key=%d rid=%v", ErrNotFound, e.Key, e.RID)
	}
	ci := upperBound(n.entries, e)
	childAgg, err := t.deleteAt(ctx, n.children[ci], level-1, e)
	if err != nil {
		return agg.Agg{}, err
	}
	n.aggs[ci] = childAgg
	return n.aggAll(), t.writeNode(ctx, id, n)
}

// Aggregate answers COUNT/SUM/MIN/MAX over lo <= key <= hi with no request
// context; see AggregateCtx.
func (t *Tree) Aggregate(lo, hi record.Key) (agg.Agg, error) {
	return t.AggregateCtx(nil, lo, hi)
}

// AggregateCtx answers COUNT/SUM/MIN/MAX over lo <= key <= hi by the
// canonical-cover descent: at each internal node the children strictly
// between the two boundary children are provably fully inside the range
// (their keys are bracketed by separators already known to be in [lo, hi]),
// so their stored annotations are folded in without descending. Only the
// two edge paths recurse and only their partial leaves are scanned, so the
// whole query touches O(log n) nodes.
func (t *Tree) AggregateCtx(ctx *exec.Context, lo, hi record.Key) (agg.Agg, error) {
	if lo > hi {
		return agg.Agg{}, nil
	}
	return t.aggregateAt(ctx, t.root, t.height, lo, hi, nil, nil)
}

// aggregateAt descends the canonical cover. lb/ub are the subtree's key
// bounds inherited from ancestor separators (nil = unknown): they let a
// node's outermost children — which have only one local separator — still
// be proven fully covered, keeping the cover to at most two frontier paths.
func (t *Tree) aggregateAt(ctx *exec.Context, id pagestore.PageID, level int, lo, hi record.Key, lb, ub *record.Key) (agg.Agg, error) {
	n, err := t.readNode(ctx, id)
	if err != nil {
		return agg.Agg{}, err
	}
	if level == 1 {
		var a agg.Agg
		for i := lowerBoundKey(n.entries, lo); i < len(n.entries) && n.entries[i].Key <= hi; i++ {
			a = a.Add(n.entries[i].Key)
		}
		return a, nil
	}
	// Child i holds keys in [sep[i-1].Key, sep[i].Key] (separators are
	// composite, so a child may share its boundary key with a neighbor —
	// the closed interval is the sound reading). lsel is the first child
	// that can hold keys >= lo, rsel the last that can hold keys <= hi.
	lsel := lowerBoundKey(n.entries, lo)
	rsel := len(n.children) - 1
	for rsel > 0 && n.entries[rsel-1].Key > hi {
		rsel--
	}
	if lsel > rsel {
		// Possible only with duplicate boundary keys straddling a
		// separator; the singleton child lsel-1..lsel region is empty.
		return agg.Agg{}, nil
	}
	var a agg.Agg
	for i := lsel; i <= rsel; i++ {
		// Fully covered iff the child's key span [sep[i-1], sep[i]] sits
		// inside [lo, hi]; then its stored annotation is exact.
		if i > lsel && i < rsel {
			a = a.Merge(n.aggs[i])
			continue
		}
		// An outermost child has no separator on one side in this node;
		// its bound on that side is the one inherited from an ancestor.
		clb, cub := lb, ub
		if i > 0 {
			clb = &n.entries[i-1].Key
		}
		if i < len(n.entries) {
			cub = &n.entries[i].Key
		}
		if clb != nil && *clb >= lo && cub != nil && *cub <= hi {
			a = a.Merge(n.aggs[i])
			continue
		}
		sub, err := t.aggregateAt(ctx, n.children[i], level-1, lo, hi, clb, cub)
		if err != nil {
			return agg.Agg{}, err
		}
		a = a.Merge(sub)
	}
	return a, nil
}

// Count returns the number of live entries.
func (t *Tree) Count() int { return t.count }

// Height returns the number of levels (1 = the root is a leaf).
func (t *Tree) Height() int { return t.height }

// NodeCount returns the number of allocated tree nodes.
func (t *Tree) NodeCount() int { return t.nodes }

// Bytes returns the tree's storage footprint.
func (t *Tree) Bytes() int64 { return int64(t.nodes) * pagestore.PageSize }

// Validate walks the whole tree checking structural invariants: entry
// ordering, separator bounds, leaf chain order, entry count and the
// per-subtree aggregate annotations. Tests call it after randomized
// workloads.
func (t *Tree) Validate() error {
	seen := 0
	var last *Entry
	var walk func(id pagestore.PageID, level int, lo, hi *Entry) (agg.Agg, error)
	walk = func(id pagestore.PageID, level int, lo, hi *Entry) (agg.Agg, error) {
		n, err := t.readNode(nil, id)
		if err != nil {
			return agg.Agg{}, err
		}
		if (level == 1) != n.leaf {
			return agg.Agg{}, fmt.Errorf("bptree: node %d leaf flag inconsistent with level %d", id, level)
		}
		for i := 1; i < len(n.entries); i++ {
			if Compare(n.entries[i-1], n.entries[i]) >= 0 {
				return agg.Agg{}, fmt.Errorf("bptree: node %d entries out of order at %d", id, i)
			}
		}
		for _, e := range n.entries {
			if lo != nil && Compare(e, *lo) < 0 {
				return agg.Agg{}, fmt.Errorf("bptree: node %d entry below lower bound", id)
			}
			if hi != nil && Compare(e, *hi) >= 0 {
				return agg.Agg{}, fmt.Errorf("bptree: node %d entry above upper bound", id)
			}
		}
		if n.leaf {
			for i := range n.entries {
				if last != nil && Compare(*last, n.entries[i]) >= 0 {
					return agg.Agg{}, fmt.Errorf("bptree: leaf chain out of order at node %d", id)
				}
				e := n.entries[i]
				last = &e
				seen++
			}
			return n.aggAll(), nil
		}
		if len(n.children) != len(n.entries)+1 {
			return agg.Agg{}, fmt.Errorf("bptree: node %d has %d children for %d separators", id, len(n.children), len(n.entries))
		}
		if len(n.aggs) != len(n.children) {
			return agg.Agg{}, fmt.Errorf("bptree: node %d has %d aggregate annotations for %d children", id, len(n.aggs), len(n.children))
		}
		for i, c := range n.children {
			var clo, chi *Entry
			if i == 0 {
				clo = lo
			} else {
				clo = &n.entries[i-1]
			}
			if i == len(n.entries) {
				chi = hi
			} else {
				chi = &n.entries[i]
			}
			sub, err := walk(c, level-1, clo, chi)
			if err != nil {
				return agg.Agg{}, err
			}
			if sub.Normalize() != n.aggs[i].Normalize() {
				return agg.Agg{}, fmt.Errorf("bptree: node %d child %d annotation %v, subtree is %v", id, i, n.aggs[i], sub)
			}
		}
		return n.aggAll(), nil
	}
	if _, err := walk(t.root, t.height, nil, nil); err != nil {
		return err
	}
	if seen != t.count {
		return fmt.Errorf("bptree: walked %d entries, tree says %d", seen, t.count)
	}
	return nil
}
