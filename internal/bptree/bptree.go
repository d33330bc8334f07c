// Package bptree implements the disk-based B+-tree both service providers
// index the heap file with. It maps search keys to record identifiers
// (RIDs) in the heap file.
//
// There is one tree, Annotated[D], with two instances. Tree (D = struct{})
// is the conventional B+-tree the SP uses in SAE: leaf entries are a key
// and a RID, nothing more. Package mbtree instantiates the same tree with
// D = digest.Digest to get the MB-Tree TOM's SP uses: every leaf entry also
// carries its record's digest, and every child pointer the digest of the
// child page. The per-entry value is what sets the fanout, which is the
// gap the paper's Figure 6 measures.
//
// Entries are composite (key, RID) pairs and internal separators store the
// full composite, so duplicate search keys are handled exactly (the same
// heap-pointer tiebreak production systems use). Every child pointer also
// carries the (count, sum, min, max) aggregate of its subtree, which lets
// AggregateCtx answer COUNT/SUM/MIN/MAX from O(log n) nodes. Node layouts
// are byte-accurate over 4096-byte pages.
package bptree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

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

// Page layout. With S the encoded size of one value D, a leaf page is
//
//	[0] flags (1 = leaf) | [1:3] count | [3:7] next-leaf id |
//	{key 4, rid page 4, rid slot 2, value S}...
//
// and an internal page is
//
//	[0] flags (0) | [1:3] count | [3:7] child0 | value0 S | agg0 24 |
//	{separator 10, child 4, value S, agg 24}...
//
// The plain tree (S = 0) has 10-byte leaf entries and 38-byte internal
// entries; the MB-Tree (S = 20) has 30 and 58. A child's agg is the
// (count, sum, min, max) aggregate of its subtree, maintained on every
// insert, delete and split and during bulk load.
const (
	headerSize = 7
	entrySize  = 10 // key + rid
	childSize  = 4  // child page id
)

// Capacities returns the fanout of a tree whose values encode in size
// bytes: the entries per leaf page, and the separators per internal page
// (children = separators + 1).
func Capacities(size int) (leaf, inner int) {
	leaf = (pagestore.PageSize - headerSize) / (entrySize + size)
	inner = (pagestore.PageSize - headerSize - size - agg.Size) / (entrySize + childSize + size + agg.Size)
	return leaf, inner
}

// ErrNotFound is returned by DeleteCtx when the exact (key, rid) entry is
// not in the tree.
var ErrNotFound = errors.New("entry not found")

// Kind is what one instance of the tree keeps beside its entries: a value
// of type D for every leaf entry and for every child of an internal node,
// the value's page encoding, and the summary a parent stores as the value
// of a child node.
type Kind[D comparable] struct {
	Name    string                // prefixes the tree's errors
	Size    int                   // encoded bytes of one value; 0 stores none
	Put     func(buf []byte, v D) // len(buf) == Size
	Get     func(buf []byte) D    // len(buf) == Size
	Summary func(n *Node[D]) D
}

// Node is the decoded form of one page. A node read through ReadNode may
// be shared with the decoded-node cache and other readers: callers outside
// the tree must not modify it.
type Node[D comparable] struct {
	Leaf     bool
	Next     pagestore.PageID   // leaf-level sibling chain
	Entries  []Entry            // leaf: data entries; internal: separators
	Children []pagestore.PageID // internal only
	// Vals is aligned with Entries in a leaf (the entry's value) and with
	// Children in an internal node (the child's summary).
	Vals []D
	// Aggs (internal nodes only) is aligned with Children: Aggs[i]
	// summarizes the keys in Children[i]'s subtree.
	Aggs []agg.Agg
}

// aggAll returns the aggregate of every key in the node's subtree: a leaf
// folds its own entries, an internal node folds the stored child
// annotations (pure arithmetic, no I/O).
func (n *Node[D]) aggAll() agg.Agg {
	var a agg.Agg
	if n.Leaf {
		for i := range n.Entries {
			a = a.Add(n.Entries[i].Key)
		}
		return a
	}
	for i := range n.Aggs {
		a = a.Merge(n.Aggs[i])
	}
	return a
}

// child is what a parent stores for one child node.
type child[D comparable] struct {
	id  pagestore.PageID
	val D
	agg agg.Agg
}

func (n *Node[D]) setChild(i int, c child[D]) {
	n.Vals[i] = c.val
	n.Aggs[i] = c.agg
}

// Annotated is a disk-based B+-tree whose entries and child pointers carry
// a value of type D (see Kind).
type Annotated[D comparable] struct {
	io      *bufpool.IO
	kind    *Kind[D]
	decode  func([]byte) *Node[D]
	encode  func([]byte, *Node[D])
	leafCap int
	inCap   int
	root    pagestore.PageID
	rootVal D   // the root node's summary
	height  int // 1 = root is a leaf
	count   int // live entries
	nodes   int // allocated nodes
}

func newAnnotated[D comparable](store pagestore.Store, k *Kind[D]) *Annotated[D] {
	t := &Annotated[D]{io: bufpool.NewIO(store, nil), kind: k, decode: k.decodeNode, encode: k.encodeNode}
	t.leafCap, t.inCap = Capacities(k.Size)
	return t
}

// NewAnnotated creates an empty tree of kind k whose root is an empty leaf.
func NewAnnotated[D comparable](store pagestore.Store, k *Kind[D]) (*Annotated[D], error) {
	t := newAnnotated(store, k)
	t.height = 1
	n := &Node[D]{Leaf: true, Next: pagestore.InvalidPage}
	root, err := t.allocNode(nil, n)
	if err != nil {
		return nil, err
	}
	t.root, t.rootVal = root, k.Summary(n)
	return t, nil
}

// BulkloadAnnotated builds a tree of kind k from entries, which must be
// strictly ascending by Compare, with vals[i] the value of entries[i]. All
// leaves except possibly the last are packed full, mirroring how the data
// owner's initial transfer is indexed, and every summary is computed
// bottom-up.
func BulkloadAnnotated[D comparable](store pagestore.Store, k *Kind[D], entries []Entry, vals []D) (*Annotated[D], error) {
	if len(vals) != len(entries) {
		return nil, fmt.Errorf("%s: bulkload has %d values for %d entries", k.Name, len(vals), len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if Compare(entries[i-1], entries[i]) >= 0 {
			return nil, fmt.Errorf("%s: bulkload input not strictly ascending at %d", k.Name, i)
		}
	}
	if len(entries) == 0 {
		return NewAnnotated(store, k)
	}
	t := newAnnotated(store, k)

	// Build the leaf level.
	type built struct {
		child[D]
		min Entry
	}
	var level []built
	var prev *Node[D]
	for start := 0; start < len(entries); start += t.leafCap {
		end := min(start+t.leafCap, len(entries))
		n := &Node[D]{Leaf: true, Next: pagestore.InvalidPage}
		n.Entries = append(n.Entries, entries[start:end]...)
		n.Vals = append(n.Vals, vals[start:end]...)
		id, err := t.allocNode(nil, n)
		if err != nil {
			return nil, err
		}
		if prev != nil {
			prev.Next = id
			if err := t.writeNode(nil, level[len(level)-1].id, prev); err != nil {
				return nil, err
			}
		}
		prev = n
		level = append(level, built{t.summarize(id, n), entries[start]})
	}

	// Build internal levels until a single root remains.
	t.height = 1
	for len(level) > 1 {
		var next []built
		for start := 0; start < len(level); start += t.inCap + 1 {
			group := level[start:min(start+t.inCap+1, len(level))]
			n := &Node[D]{}
			for i, b := range group {
				if i > 0 {
					n.Entries = append(n.Entries, b.min)
				}
				n.Children = append(n.Children, b.id)
				n.Vals = append(n.Vals, b.val)
				n.Aggs = append(n.Aggs, b.agg)
			}
			id, err := t.allocNode(nil, n)
			if err != nil {
				return nil, err
			}
			next = append(next, built{t.summarize(id, n), group[0].min})
		}
		level = next
		t.height++
	}
	t.root, t.rootVal = level[0].id, level[0].val
	t.count = len(entries)
	return t, nil
}

// UseCache attaches a decoded-node cache to the tree's read/write path
// (nil detaches). Typically called right after New/Bulkload so the build
// itself runs uncached.
func (t *Annotated[D]) UseCache(c *bufpool.Cache) { t.io.SetCache(c) }

// Root returns the root page's id.
func (t *Annotated[D]) Root() pagestore.PageID { return t.root }

// Summary returns the root node's summary (for the MB-Tree, the digest
// the data owner signs).
func (t *Annotated[D]) Summary() D { return t.rootVal }

// Count returns the number of live entries.
func (t *Annotated[D]) Count() int { return t.count }

// Height returns the number of levels (1 = the root is a leaf).
func (t *Annotated[D]) Height() int { return t.height }

// NodeCount returns the number of allocated tree nodes.
func (t *Annotated[D]) NodeCount() int { return t.nodes }

// Bytes returns the tree's storage footprint.
func (t *Annotated[D]) Bytes() int64 { return int64(t.nodes) * pagestore.PageSize }

func (t *Annotated[D]) summarize(id pagestore.PageID, n *Node[D]) child[D] {
	return child[D]{id: id, val: t.kind.Summary(n), agg: n.aggAll()}
}

// allocNode allocates a page for n and writes it.
func (t *Annotated[D]) allocNode(ctx *exec.Context, n *Node[D]) (pagestore.PageID, error) {
	id, err := t.io.Allocate(ctx)
	if err != nil {
		return 0, fmt.Errorf("%s: allocating node: %w", t.kind.Name, err)
	}
	t.nodes++
	if err := t.writeNode(ctx, id, n); err != nil {
		return 0, err
	}
	return id, nil
}

func (t *Annotated[D]) writeNode(ctx *exec.Context, id pagestore.PageID, n *Node[D]) error {
	if err := bufpool.WriteNode(t.io, ctx, id, n, t.encode); err != nil {
		return fmt.Errorf("%s: writing node %d: %w", t.kind.Name, id, err)
	}
	return nil
}

// ReadNode returns the decoded page id, charging the access to ctx. It is
// how code built on the tree (the MB-Tree's VO builders) walks it.
func (t *Annotated[D]) ReadNode(ctx *exec.Context, id pagestore.PageID) (*Node[D], error) {
	n, err := bufpool.ReadNode(t.io, ctx, id, t.decode)
	if err != nil {
		return nil, fmt.Errorf("%s: reading node %d: %w", t.kind.Name, id, err)
	}
	return n, nil
}

func (k *Kind[D]) encodeNode(buf []byte, n *Node[D]) {
	clear(buf)
	binary.BigEndian.PutUint16(buf[1:3], uint16(len(n.Entries)))
	if n.Leaf {
		buf[0] = 1
		binary.BigEndian.PutUint32(buf[3:7], uint32(n.Next))
		off := headerSize
		for i, e := range n.Entries {
			putEntry(buf[off:], e)
			if k.Size > 0 {
				k.Put(buf[off+entrySize:off+entrySize+k.Size], n.Vals[i])
			}
			off += entrySize + k.Size
		}
		return
	}
	off := k.putChild(buf[3:], n, 0) + 3
	for i, e := range n.Entries {
		putEntry(buf[off:], e)
		off += entrySize + k.putChild(buf[off+entrySize:], n, i+1)
	}
}

// putChild writes child i as child id | value | agg and returns the bytes
// written.
func (k *Kind[D]) putChild(buf []byte, n *Node[D], i int) int {
	binary.BigEndian.PutUint32(buf, uint32(n.Children[i]))
	if k.Size > 0 {
		k.Put(buf[childSize:childSize+k.Size], n.Vals[i])
	}
	n.Aggs[i].PutBytes(buf[childSize+k.Size:])
	return childSize + k.Size + agg.Size
}

func (k *Kind[D]) decodeNode(buf []byte) *Node[D] {
	n := &Node[D]{Leaf: buf[0] == 1}
	count := int(binary.BigEndian.Uint16(buf[1:3]))
	n.Entries = make([]Entry, count)
	if n.Leaf {
		n.Next = pagestore.PageID(binary.BigEndian.Uint32(buf[3:7]))
		n.Vals = make([]D, count)
		off := headerSize
		for i := range n.Entries {
			n.Entries[i] = getEntry(buf[off:])
			if k.Size > 0 {
				n.Vals[i] = k.Get(buf[off+entrySize : off+entrySize+k.Size])
			}
			off += entrySize + k.Size
		}
		return n
	}
	n.Children = make([]pagestore.PageID, count+1)
	n.Vals = make([]D, count+1)
	n.Aggs = make([]agg.Agg, count+1)
	off := k.getChild(buf[3:], n, 0) + 3
	for i := range n.Entries {
		n.Entries[i] = getEntry(buf[off:])
		off += entrySize + k.getChild(buf[off+entrySize:], n, i+1)
	}
	return n
}

// getChild reads child i as putChild wrote it and returns the bytes read.
func (k *Kind[D]) getChild(buf []byte, n *Node[D], i int) int {
	n.Children[i] = pagestore.PageID(binary.BigEndian.Uint32(buf))
	if k.Size > 0 {
		n.Vals[i] = k.Get(buf[childSize : childSize+k.Size])
	}
	n.Aggs[i] = agg.FromBytes(buf[childSize+k.Size:])
	return childSize + k.Size + agg.Size
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

// RangeAppendCtx appends the RIDs of all entries with lo <= key <= hi to
// out, in key order, charging every node access to ctx. Passing a reused
// buffer (out[:0]) lets a serve loop scan without growing a fresh slice
// every time.
func (t *Annotated[D]) RangeAppendCtx(ctx *exec.Context, lo, hi record.Key, out []heapfile.RID) ([]heapfile.RID, error) {
	if lo > hi {
		return out, nil
	}
	id := t.root
	for level := t.height; level > 1; level-- {
		n, err := t.ReadNode(ctx, id)
		if err != nil {
			return out, err
		}
		id = n.Children[lowerBoundKey(n.Entries, lo)]
	}
	for id != pagestore.InvalidPage {
		n, err := t.ReadNode(ctx, id)
		if err != nil {
			return out, err
		}
		i := lowerBoundKey(n.Entries, lo)
		for ; i < len(n.Entries); i++ {
			if n.Entries[i].Key > hi {
				return out, nil
			}
			out = append(out, n.Entries[i].RID)
		}
		id = n.Next
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
func (t *Annotated[D]) RangeBurstCtx(ctxs []*exec.Context, los, his []record.Key, arena []heapfile.RID, offs []int) ([]heapfile.RID, []int, error) {
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

// grown is what a node reports to its parent after an insert: its own new
// summary and, when it split, the separator and the new right sibling.
type grown[D comparable] struct {
	self  child[D]
	split bool
	sep   Entry
	right child[D]
}

// InsertCtx adds entry e with value v in O(height) node accesses,
// splitting on overflow. Every node on the path is rewritten so its
// parent's summary and aggregate annotation stay exact.
func (t *Annotated[D]) InsertCtx(ctx *exec.Context, e Entry, v D) error {
	g, err := t.insertAt(ctx, t.root, t.height, e, v)
	if err != nil {
		return err
	}
	top := g.self
	if g.split {
		// Root split: grow the tree by one level.
		n := &Node[D]{
			Entries:  []Entry{g.sep},
			Children: []pagestore.PageID{t.root, g.right.id},
			Vals:     []D{g.self.val, g.right.val},
			Aggs:     []agg.Agg{g.self.agg, g.right.agg},
		}
		id, err := t.allocNode(ctx, n)
		if err != nil {
			return err
		}
		t.root = id
		t.height++
		top = t.summarize(id, n)
	}
	t.rootVal = top.val
	t.count++
	return nil
}

// insertAt inserts e into the subtree rooted at id (at the given level,
// 1 = leaf) and reports the subtree's new summaries, so the parent
// refreshes its annotations without extra reads.
func (t *Annotated[D]) insertAt(ctx *exec.Context, id pagestore.PageID, level int, e Entry, v D) (grown[D], error) {
	n, err := t.ReadNode(ctx, id)
	if err != nil {
		return grown[D]{}, err
	}
	if level == 1 {
		pos := upperBound(n.Entries, e)
		n.Entries = slices.Insert(n.Entries, pos, e)
		n.Vals = slices.Insert(n.Vals, pos, v)
		if len(n.Entries) > t.leafCap {
			return t.split(ctx, id, n)
		}
		return t.rewrite(ctx, id, n)
	}
	ci := upperBound(n.Entries, e)
	g, err := t.insertAt(ctx, n.Children[ci], level-1, e, v)
	if err != nil {
		return grown[D]{}, err
	}
	n.setChild(ci, g.self)
	if g.split {
		n.Entries = slices.Insert(n.Entries, ci, g.sep)
		n.Children = slices.Insert(n.Children, ci+1, g.right.id)
		n.Vals = slices.Insert(n.Vals, ci+1, g.right.val)
		n.Aggs = slices.Insert(n.Aggs, ci+1, g.right.agg)
		if len(n.Entries) > t.inCap {
			return t.split(ctx, id, n)
		}
	}
	return t.rewrite(ctx, id, n)
}

// rewrite writes n back to its page and reports its new summary.
func (t *Annotated[D]) rewrite(ctx *exec.Context, id pagestore.PageID, n *Node[D]) (grown[D], error) {
	if err := t.writeNode(ctx, id, n); err != nil {
		return grown[D]{}, err
	}
	return grown[D]{self: t.summarize(id, n)}, nil
}

// split moves the upper half of an overflowing node to a new right
// sibling. A leaf's separator is the right sibling's first entry; an
// internal node's is its middle separator, which moves up.
func (t *Annotated[D]) split(ctx *exec.Context, id pagestore.PageID, n *Node[D]) (grown[D], error) {
	mid := len(n.Entries) / 2
	sep := n.Entries[mid]
	right := &Node[D]{Leaf: n.Leaf}
	if n.Leaf {
		right.Next = n.Next
		right.Entries = append(right.Entries, n.Entries[mid:]...)
		right.Vals = append(right.Vals, n.Vals[mid:]...)
	} else {
		right.Entries = append(right.Entries, n.Entries[mid+1:]...)
		right.Children = append(right.Children, n.Children[mid+1:]...)
		right.Vals = append(right.Vals, n.Vals[mid+1:]...)
		right.Aggs = append(right.Aggs, n.Aggs[mid+1:]...)
	}
	rightID, err := t.allocNode(ctx, right)
	if err != nil {
		// n was mutated in memory but never persisted; drop the cached copy.
		t.io.Discard(id)
		return grown[D]{}, err
	}
	n.Entries = n.Entries[:mid]
	if n.Leaf {
		n.Vals = n.Vals[:mid]
		n.Next = rightID
	} else {
		n.Children = n.Children[:mid+1]
		n.Vals = n.Vals[:mid+1]
		n.Aggs = n.Aggs[:mid+1]
	}
	if err := t.writeNode(ctx, id, n); err != nil {
		return grown[D]{}, err
	}
	return grown[D]{self: t.summarize(id, n), split: true, sep: sep, right: t.summarize(rightID, right)}, nil
}

// DeleteCtx removes the exact (key, rid) entry. Underfull nodes are left in
// place (the lazy-deletion policy common in production B+-trees); an empty
// leaf stays in the sibling chain and is skipped by scans. The descent is
// recursive so that every ancestor's summary and aggregate annotation is
// refreshed on the way back up.
func (t *Annotated[D]) DeleteCtx(ctx *exec.Context, e Entry) error {
	c, err := t.deleteAt(ctx, t.root, t.height, e)
	if err != nil {
		return err
	}
	t.rootVal = c.val
	t.count--
	return nil
}

// deleteAt removes e from the subtree rooted at id and reports the
// subtree's new summary. Nothing is written when e is absent.
func (t *Annotated[D]) deleteAt(ctx *exec.Context, id pagestore.PageID, level int, e Entry) (child[D], error) {
	n, err := t.ReadNode(ctx, id)
	if err != nil {
		return child[D]{}, err
	}
	if level == 1 {
		i, ok := slices.BinarySearchFunc(n.Entries, e, Compare)
		if !ok {
			return child[D]{}, fmt.Errorf("%s: %w: key=%d rid=%v", t.kind.Name, ErrNotFound, e.Key, e.RID)
		}
		n.Entries = slices.Delete(n.Entries, i, i+1)
		n.Vals = slices.Delete(n.Vals, i, i+1)
	} else {
		ci := upperBound(n.Entries, e)
		c, err := t.deleteAt(ctx, n.Children[ci], level-1, e)
		if err != nil {
			return child[D]{}, err
		}
		n.setChild(ci, c)
	}
	if err := t.writeNode(ctx, id, n); err != nil {
		return child[D]{}, err
	}
	return t.summarize(id, n), nil
}

// AggregateCtx answers COUNT/SUM/MIN/MAX over lo <= key <= hi by the
// canonical-cover descent: at each internal node the children strictly
// between the two boundary children are provably fully inside the range
// (their keys are bracketed by separators already known to be in [lo, hi]),
// so their stored annotations are folded in without descending. Only the
// two edge paths recurse and only their partial leaves are scanned, so the
// whole query touches O(log n) nodes.
func (t *Annotated[D]) AggregateCtx(ctx *exec.Context, lo, hi record.Key) (agg.Agg, error) {
	if lo > hi {
		return agg.Agg{}, nil
	}
	return t.aggregateAt(ctx, t.root, t.height, lo, hi, nil, nil)
}

// aggregateAt descends the canonical cover. lb/ub are the subtree's key
// bounds inherited from ancestor separators (nil = unknown): they let a
// node's outermost children — which have only one local separator — still
// be proven fully covered, keeping the cover to at most two frontier paths.
func (t *Annotated[D]) aggregateAt(ctx *exec.Context, id pagestore.PageID, level int, lo, hi record.Key, lb, ub *record.Key) (agg.Agg, error) {
	n, err := t.ReadNode(ctx, id)
	if err != nil {
		return agg.Agg{}, err
	}
	if level == 1 {
		var a agg.Agg
		for i := lowerBoundKey(n.Entries, lo); i < len(n.Entries) && n.Entries[i].Key <= hi; i++ {
			a = a.Add(n.Entries[i].Key)
		}
		return a, nil
	}
	// Child i holds keys in [sep[i-1].Key, sep[i].Key] (separators are
	// composite, so a child may share its boundary key with a neighbor —
	// the closed interval is the sound reading). lsel is the first child
	// that can hold keys >= lo, rsel the last that can hold keys <= hi.
	lsel := lowerBoundKey(n.Entries, lo)
	rsel := len(n.Children) - 1
	for rsel > 0 && n.Entries[rsel-1].Key > hi {
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
			a = a.Merge(n.Aggs[i])
			continue
		}
		// An outermost child has no separator on one side in this node;
		// its bound on that side is the one inherited from an ancestor.
		clb, cub := lb, ub
		if i > 0 {
			clb = &n.Entries[i-1].Key
		}
		if i < len(n.Entries) {
			cub = &n.Entries[i].Key
		}
		if clb != nil && *clb >= lo && cub != nil && *cub <= hi {
			a = a.Merge(n.Aggs[i])
			continue
		}
		sub, err := t.aggregateAt(ctx, n.Children[i], level-1, lo, hi, clb, cub)
		if err != nil {
			return agg.Agg{}, err
		}
		a = a.Merge(sub)
	}
	return a, nil
}

// Validate walks the whole tree checking structural invariants: entry
// ordering, separator bounds, leaf chain order, entry count, and every
// child's stored summary and aggregate annotation against the subtree.
// Tests call it after randomized workloads.
func (t *Annotated[D]) Validate() error {
	name := t.kind.Name
	seen := 0
	var last *Entry
	var walk func(id pagestore.PageID, level int, lo, hi *Entry) (child[D], error)
	walk = func(id pagestore.PageID, level int, lo, hi *Entry) (child[D], error) {
		n, err := t.ReadNode(nil, id)
		if err != nil {
			return child[D]{}, err
		}
		if (level == 1) != n.Leaf {
			return child[D]{}, fmt.Errorf("%s: node %d leaf flag inconsistent with level %d", name, id, level)
		}
		for i := 1; i < len(n.Entries); i++ {
			if Compare(n.Entries[i-1], n.Entries[i]) >= 0 {
				return child[D]{}, fmt.Errorf("%s: node %d entries out of order at %d", name, id, i)
			}
		}
		for _, e := range n.Entries {
			if lo != nil && Compare(e, *lo) < 0 {
				return child[D]{}, fmt.Errorf("%s: node %d entry below lower bound", name, id)
			}
			if hi != nil && Compare(e, *hi) >= 0 {
				return child[D]{}, fmt.Errorf("%s: node %d entry above upper bound", name, id)
			}
		}
		if n.Leaf {
			if len(n.Vals) != len(n.Entries) {
				return child[D]{}, fmt.Errorf("%s: leaf %d has %d values for %d entries", name, id, len(n.Vals), len(n.Entries))
			}
			for i := range n.Entries {
				if last != nil && Compare(*last, n.Entries[i]) >= 0 {
					return child[D]{}, fmt.Errorf("%s: leaf chain out of order at node %d", name, id)
				}
				last = &n.Entries[i]
				seen++
			}
			return t.summarize(id, n), nil
		}
		if len(n.Children) != len(n.Entries)+1 {
			return child[D]{}, fmt.Errorf("%s: node %d has %d children for %d separators", name, id, len(n.Children), len(n.Entries))
		}
		if len(n.Vals) != len(n.Children) || len(n.Aggs) != len(n.Children) {
			return child[D]{}, fmt.Errorf("%s: node %d has %d values and %d aggregate annotations for %d children", name, id, len(n.Vals), len(n.Aggs), len(n.Children))
		}
		for i, c := range n.Children {
			clo, chi := lo, hi
			if i > 0 {
				clo = &n.Entries[i-1]
			}
			if i < len(n.Entries) {
				chi = &n.Entries[i]
			}
			sub, err := walk(c, level-1, clo, chi)
			if err != nil {
				return child[D]{}, err
			}
			if sub.val != n.Vals[i] {
				return child[D]{}, fmt.Errorf("%s: node %d child %d summary mismatch", name, id, i)
			}
			if sub.agg.Normalize() != n.Aggs[i].Normalize() {
				return child[D]{}, fmt.Errorf("%s: node %d child %d annotation %v, subtree is %v", name, id, i, n.Aggs[i], sub.agg)
			}
		}
		return t.summarize(id, n), nil
	}
	root, err := walk(t.root, t.height, nil, nil)
	if err != nil {
		return err
	}
	if root.val != t.rootVal {
		return fmt.Errorf("%s: cached root summary stale", name)
	}
	if seen != t.count {
		return fmt.Errorf("%s: walked %d entries, tree says %d", name, seen, t.count)
	}
	return nil
}

// Tree is the B+-tree the SP indexes the heap file with under SAE: keys
// and RIDs only, so a leaf entry takes 10 bytes.
type Tree = Annotated[struct{}]

// Tree's fanouts, as Capacities(0) computes them.
const (
	// LeafCapacity is the maximum number of entries per leaf page.
	LeafCapacity = (pagestore.PageSize - headerSize) / entrySize // 408
	// InnerCapacity is the maximum number of separators per internal page.
	InnerCapacity = (pagestore.PageSize - headerSize - agg.Size) / (entrySize + childSize + agg.Size) // 106
)

var plain = &Kind[struct{}]{
	Name:    "bptree",
	Summary: func(*Node[struct{}]) struct{} { return struct{}{} },
}

// New creates an empty Tree whose root is an empty leaf.
func New(store pagestore.Store) (*Tree, error) { return NewAnnotated(store, plain) }

// Bulkload builds a Tree from entries, which must be strictly ascending
// by Compare.
func Bulkload(store pagestore.Store, entries []Entry) (*Tree, error) {
	return BulkloadAnnotated(store, plain, entries, make([]struct{}, len(entries)))
}
