// Package mbtree implements the MB-Tree (Merkle B+-tree, Li et al.
// SIGMOD'06), the state-of-the-art authenticated data structure the paper
// uses as the TOM baseline.
//
// The tree is a B+-tree whose every entry carries a digest: a leaf entry's
// digest is the hash of its record's binary representation, and an internal
// entry's digest is the hash of the concatenation of the digests in the
// child page it points to. The data owner signs the digest of the root
// page; the service provider answers a range query with a verification
// object (VO) from which the client re-derives the root digest and matches
// it against the signature.
//
// Entry digests inflate every node by 20 bytes per entry, which is exactly
// why the MB-Tree's fanout — and therefore the SP's query performance in
// TOM — trails the plain B+-tree used by SAE.
package mbtree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sae/internal/agg"
	"sae/internal/bufpool"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/heapfile"
	"sae/internal/pagestore"
	"sae/internal/record"
)

// Entry is one indexed, authenticated item.
type Entry struct {
	Key    record.Key
	RID    heapfile.RID
	Digest digest.Digest // hash of the record's binary representation
}

// Compare orders entries by key then RID, as in package bptree: the RID
// tiebreak keeps duplicate keys exact.
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

// Page layouts over 4096-byte pages.
//
// Leaf: [0]=1 | [1:3] count | [3:7] next | entries { key 4, rid 6, digest 20 }
// Internal: [0]=0 | [1:3] count | [3:7] child0 | [7:27] digest0 |
// [27:51] agg0 | entries { sep(key 4, rid 6), child 4, digest 20, agg 24 }
//
// Internal children carry the (count, sum, min, max) aggregate of their
// subtree, and the node hash binds separator keys, child digests AND the
// aggregates (see node.digest), so a VO can prove an aggregate without
// shipping leaf records: tampering with an annotation breaks the Merkle
// chain to the signed root.
const (
	leafHeader  = 7
	innerHeader = 27 + agg.Size // 51
	leafEntry   = 30
	innerEntry  = 34 + agg.Size // 58
	// LeafCapacity is the maximum number of entries per leaf page.
	LeafCapacity = (pagestore.PageSize - leafHeader) / leafEntry // 136
	// InnerCapacity is the maximum number of separators per internal page.
	InnerCapacity = (pagestore.PageSize - innerHeader) / innerEntry // 69
)

// ErrNotFound is returned by Delete for an absent entry.
var ErrNotFound = errors.New("mbtree: entry not found")

// Tree is a disk-based MB-Tree.
type Tree struct {
	io         *bufpool.IO
	root       pagestore.PageID
	rootDigest digest.Digest
	height     int
	count      int
	nodes      int
}

// UseCache attaches a decoded-node cache to the tree's read/write path
// (nil detaches).
func (t *Tree) UseCache(c *bufpool.Cache) { t.io.SetCache(c) }

type node struct {
	leaf     bool
	next     pagestore.PageID
	entries  []Entry
	children []pagestore.PageID
	// digests aligned with children (internal nodes only): digests[i] is
	// the Merkle digest of children[i]'s page.
	digests []digest.Digest
	// aggs aligned with children (internal nodes only): aggs[i] is the
	// (count, sum, min, max) aggregate of children[i]'s subtree.
	aggs []agg.Agg
}

// digest computes the node's Merkle digest. The hash stream binds
// everything a verifier reasons about:
//
//	leaf:     per entry  key(4) || recordDigest(20)
//	internal: dig0(20) || agg0(24), then per child i >= 1:
//	          sepKey(4) || dig_i(20) || agg_i(24)
//
// Binding the keys and separators (not just the child digests) lets VO
// verification prove which key range each pruned child covers, and binding
// the aggregates makes the annotations as tamper-evident as the records.
// voVerify's replay must write the exact same byte stream.
func (n *node) digest() digest.Digest {
	w := digest.NewConcatWriter()
	var kb [4]byte
	var ab [agg.Size]byte
	if n.leaf {
		for i := range n.entries {
			binary.BigEndian.PutUint32(kb[:], uint32(n.entries[i].Key))
			w.Write(kb[:])
			w.Add(n.entries[i].Digest)
		}
		return w.Sum()
	}
	w.Add(n.digests[0])
	n.aggs[0].PutBytes(ab[:])
	w.Write(ab[:])
	for i := range n.entries {
		binary.BigEndian.PutUint32(kb[:], uint32(n.entries[i].Key))
		w.Write(kb[:])
		w.Add(n.digests[i+1])
		n.aggs[i+1].PutBytes(ab[:])
		w.Write(ab[:])
	}
	return w.Sum()
}

// aggAll returns the aggregate of every key in the node's subtree.
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

// New creates an empty tree.
func New(store pagestore.Store) (*Tree, error) {
	t := &Tree{io: bufpool.NewIO(store, nil), height: 1}
	n := &node{leaf: true, next: pagestore.InvalidPage}
	id, err := t.allocNode(nil, n)
	if err != nil {
		return nil, err
	}
	t.root = id
	t.rootDigest = n.digest()
	return t, nil
}

// Bulkload builds a tree from entries sorted by Compare, computing all
// Merkle digests bottom-up. This is the ADS the data owner constructs and
// ships to the SP under TOM.
func Bulkload(store pagestore.Store, entries []Entry) (*Tree, error) {
	for i := 1; i < len(entries); i++ {
		if Compare(entries[i-1], entries[i]) > 0 {
			return nil, fmt.Errorf("mbtree: bulkload input not sorted at %d", i)
		}
	}
	if len(entries) == 0 {
		return New(store)
	}
	t := &Tree{io: bufpool.NewIO(store, nil)}

	type built struct {
		id  pagestore.PageID
		min Entry
		dig digest.Digest
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
		level = append(level, built{id: id, min: entries[start], dig: n.digest(), agg: n.aggAll()})
	}

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
			n.digests = append(n.digests, group[0].dig)
			n.aggs = append(n.aggs, group[0].agg)
			for _, b := range group[1:] {
				n.entries = append(n.entries, Entry{Key: b.min.Key, RID: b.min.RID})
				n.children = append(n.children, b.id)
				n.digests = append(n.digests, b.dig)
				n.aggs = append(n.aggs, b.agg)
			}
			id, err := t.allocNode(nil, n)
			if err != nil {
				return nil, err
			}
			next = append(next, built{id: id, min: group[0].min, dig: n.digest(), agg: n.aggAll()})
		}
		level = next
		t.height++
	}
	t.root = level[0].id
	t.rootDigest = level[0].dig
	t.count = len(entries)
	return t, nil
}

// RootDigest returns the Merkle digest of the root page — the value the
// data owner signs.
func (t *Tree) RootDigest() digest.Digest { return t.rootDigest }

// Count returns the number of live entries.
func (t *Tree) Count() int { return t.count }

// Height returns the number of levels (1 = leaf root).
func (t *Tree) Height() int { return t.height }

// NodeCount returns the number of allocated nodes.
func (t *Tree) NodeCount() int { return t.nodes }

// Bytes returns the tree's storage footprint.
func (t *Tree) Bytes() int64 { return int64(t.nodes) * pagestore.PageSize }

func (t *Tree) allocNode(ctx *exec.Context, n *node) (pagestore.PageID, error) {
	id, err := t.io.Allocate(ctx)
	if err != nil {
		return 0, fmt.Errorf("mbtree: allocating node: %w", err)
	}
	t.nodes++
	if err := t.writeNode(ctx, id, n); err != nil {
		return 0, err
	}
	return id, nil
}

func (t *Tree) writeNode(ctx *exec.Context, id pagestore.PageID, n *node) error {
	if err := bufpool.WriteNode(t.io, ctx, id, n, encodeNode); err != nil {
		return fmt.Errorf("mbtree: writing node %d: %w", id, err)
	}
	return nil
}

func (t *Tree) readNode(ctx *exec.Context, id pagestore.PageID) (*node, error) {
	n, err := bufpool.ReadNode(t.io, ctx, id, decodeNode)
	if err != nil {
		return nil, fmt.Errorf("mbtree: reading node %d: %w", id, err)
	}
	return n, nil
}

func putEntryKeyRID(buf []byte, e Entry) {
	binary.BigEndian.PutUint32(buf[0:4], uint32(e.Key))
	binary.BigEndian.PutUint32(buf[4:8], uint32(e.RID.Page))
	binary.BigEndian.PutUint16(buf[8:10], e.RID.Slot)
}

func getEntryKeyRID(buf []byte) Entry {
	return Entry{
		Key: record.Key(binary.BigEndian.Uint32(buf[0:4])),
		RID: heapfile.RID{
			Page: pagestore.PageID(binary.BigEndian.Uint32(buf[4:8])),
			Slot: binary.BigEndian.Uint16(buf[8:10]),
		},
	}
}

func encodeNode(buf []byte, n *node) {
	for i := range buf {
		buf[i] = 0
	}
	if n.leaf {
		buf[0] = 1
		binary.BigEndian.PutUint16(buf[1:3], uint16(len(n.entries)))
		binary.BigEndian.PutUint32(buf[3:7], uint32(n.next))
		off := leafHeader
		for i := range n.entries {
			putEntryKeyRID(buf[off:off+10], n.entries[i])
			copy(buf[off+10:off+30], n.entries[i].Digest[:])
			off += leafEntry
		}
		return
	}
	binary.BigEndian.PutUint16(buf[1:3], uint16(len(n.entries)))
	binary.BigEndian.PutUint32(buf[3:7], uint32(n.children[0]))
	copy(buf[7:27], n.digests[0][:])
	n.aggs[0].PutBytes(buf[27:innerHeader])
	off := innerHeader
	for i := range n.entries {
		putEntryKeyRID(buf[off:off+10], n.entries[i])
		binary.BigEndian.PutUint32(buf[off+10:off+14], uint32(n.children[i+1]))
		copy(buf[off+14:off+34], n.digests[i+1][:])
		n.aggs[i+1].PutBytes(buf[off+34 : off+innerEntry])
		off += innerEntry
	}
}

func decodeNode(buf []byte) *node {
	n := &node{leaf: buf[0] == 1}
	count := int(binary.BigEndian.Uint16(buf[1:3]))
	if n.leaf {
		n.next = pagestore.PageID(binary.BigEndian.Uint32(buf[3:7]))
		n.entries = make([]Entry, count)
		off := leafHeader
		for i := 0; i < count; i++ {
			n.entries[i] = getEntryKeyRID(buf[off : off+10])
			n.entries[i].Digest = digest.FromBytes(buf[off+10 : off+30])
			off += leafEntry
		}
		return n
	}
	n.entries = make([]Entry, count)
	n.children = make([]pagestore.PageID, 0, count+1)
	n.digests = make([]digest.Digest, 0, count+1)
	n.aggs = make([]agg.Agg, 0, count+1)
	n.children = append(n.children, pagestore.PageID(binary.BigEndian.Uint32(buf[3:7])))
	n.digests = append(n.digests, digest.FromBytes(buf[7:27]))
	n.aggs = append(n.aggs, agg.FromBytes(buf[27:innerHeader]))
	off := innerHeader
	for i := 0; i < count; i++ {
		n.entries[i] = getEntryKeyRID(buf[off : off+10])
		n.children = append(n.children, pagestore.PageID(binary.BigEndian.Uint32(buf[off+10:off+14])))
		n.digests = append(n.digests, digest.FromBytes(buf[off+14:off+34]))
		n.aggs = append(n.aggs, agg.FromBytes(buf[off+34:off+innerEntry]))
		off += innerEntry
	}
	return n
}

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

// Range returns the RIDs of entries with lo <= key <= hi, without building a
// VO and with no request context; see RangeCtx.
func (t *Tree) Range(lo, hi record.Key) ([]heapfile.RID, error) {
	return t.RangeCtx(nil, lo, hi)
}

// RangeCtx returns the RIDs of entries with lo <= key <= hi, charging node
// accesses to ctx (used by tests and by clients that skip verification).
func (t *Tree) RangeCtx(ctx *exec.Context, lo, hi record.Key) ([]heapfile.RID, error) {
	if lo > hi {
		return nil, nil
	}
	id := t.root
	for level := t.height; level > 1; level-- {
		n, err := t.readNode(ctx, id)
		if err != nil {
			return nil, err
		}
		id = n.children[lowerBoundKey(n.entries, lo)]
	}
	var out []heapfile.RID
	for id != pagestore.InvalidPage {
		n, err := t.readNode(ctx, id)
		if err != nil {
			return nil, err
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

// Insert adds an entry with no request context; see InsertCtx.
func (t *Tree) Insert(e Entry) error { return t.InsertCtx(nil, e) }

// InsertCtx adds an entry, maintaining Merkle digests along the path. The
// new root digest (which the owner must re-sign) is available via
// RootDigest.
func (t *Tree) InsertCtx(ctx *exec.Context, e Entry) error {
	res, err := t.insertAt(ctx, t.root, t.height, e)
	if err != nil {
		return err
	}
	selfDig := res.selfDig
	if res.right != pagestore.InvalidPage {
		n := &node{
			leaf:     false,
			entries:  []Entry{res.sep},
			children: []pagestore.PageID{t.root, res.right},
			digests:  []digest.Digest{res.selfDig, res.rightDig},
			aggs:     []agg.Agg{res.selfAgg, res.rightAgg},
		}
		id, err := t.allocNode(ctx, n)
		if err != nil {
			return err
		}
		t.root = id
		t.height++
		selfDig = n.digest()
	}
	t.rootDigest = selfDig
	t.count++
	return nil
}

// insertResult carries a child's post-insert summary up the recursion: the
// split separator and right sibling (InvalidPage when no split), and the
// digest + aggregate of the updated node(s), so parents refresh their
// Merkle digests and annotations without extra reads.
type insertResult struct {
	sep      Entry
	right    pagestore.PageID
	rightDig digest.Digest
	rightAgg agg.Agg
	selfDig  digest.Digest
	selfAgg  agg.Agg
}

func (t *Tree) insertAt(ctx *exec.Context, id pagestore.PageID, level int, e Entry) (insertResult, error) {
	n, err := t.readNode(ctx, id)
	if err != nil {
		return insertResult{}, err
	}
	if level == 1 {
		pos := upperBound(n.entries, e)
		n.entries = append(n.entries, Entry{})
		copy(n.entries[pos+1:], n.entries[pos:])
		n.entries[pos] = e
		if len(n.entries) <= LeafCapacity {
			return insertResult{right: pagestore.InvalidPage, selfDig: n.digest(), selfAgg: n.aggAll()}, t.writeNode(ctx, id, n)
		}
		return t.splitLeaf(ctx, id, n)
	}
	ci := upperBound(n.entries, e)
	cr, err := t.insertAt(ctx, n.children[ci], level-1, e)
	if err != nil {
		return insertResult{}, err
	}
	n.digests[ci] = cr.selfDig
	n.aggs[ci] = cr.selfAgg
	if cr.right != pagestore.InvalidPage {
		n.entries = append(n.entries, Entry{})
		copy(n.entries[ci+1:], n.entries[ci:])
		n.entries[ci] = cr.sep
		n.children = append(n.children, pagestore.InvalidPage)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = cr.right
		n.digests = append(n.digests, digest.Zero)
		copy(n.digests[ci+2:], n.digests[ci+1:])
		n.digests[ci+1] = cr.rightDig
		n.aggs = append(n.aggs, agg.Agg{})
		copy(n.aggs[ci+2:], n.aggs[ci+1:])
		n.aggs[ci+1] = cr.rightAgg
		if len(n.entries) > InnerCapacity {
			return t.splitInner(ctx, id, n)
		}
	}
	return insertResult{right: pagestore.InvalidPage, selfDig: n.digest(), selfAgg: n.aggAll()}, t.writeNode(ctx, id, n)
}

func (t *Tree) splitLeaf(ctx *exec.Context, id pagestore.PageID, n *node) (insertResult, error) {
	mid := len(n.entries) / 2
	rightNode := &node{leaf: true, next: n.next}
	rightNode.entries = append(rightNode.entries, n.entries[mid:]...)
	rightID, err := t.allocNode(ctx, rightNode)
	if err != nil {
		// n was mutated in memory but never persisted; drop the cached copy.
		t.io.Discard(id)
		return insertResult{}, err
	}
	n.entries = n.entries[:mid]
	n.next = rightID
	if err := t.writeNode(ctx, id, n); err != nil {
		return insertResult{}, err
	}
	return insertResult{
		sep:      Entry{Key: rightNode.entries[0].Key, RID: rightNode.entries[0].RID},
		right:    rightID,
		rightDig: rightNode.digest(),
		rightAgg: rightNode.aggAll(),
		selfDig:  n.digest(),
		selfAgg:  n.aggAll(),
	}, nil
}

func (t *Tree) splitInner(ctx *exec.Context, id pagestore.PageID, n *node) (insertResult, error) {
	mid := len(n.entries) / 2
	sep := n.entries[mid]
	rightNode := &node{leaf: false}
	rightNode.entries = append(rightNode.entries, n.entries[mid+1:]...)
	rightNode.children = append(rightNode.children, n.children[mid+1:]...)
	rightNode.digests = append(rightNode.digests, n.digests[mid+1:]...)
	rightNode.aggs = append(rightNode.aggs, n.aggs[mid+1:]...)
	rightID, err := t.allocNode(ctx, rightNode)
	if err != nil {
		t.io.Discard(id)
		return insertResult{}, err
	}
	n.entries = n.entries[:mid]
	n.children = n.children[:mid+1]
	n.digests = n.digests[:mid+1]
	n.aggs = n.aggs[:mid+1]
	if err := t.writeNode(ctx, id, n); err != nil {
		return insertResult{}, err
	}
	return insertResult{
		sep:      sep,
		right:    rightID,
		rightDig: rightNode.digest(),
		rightAgg: rightNode.aggAll(),
		selfDig:  n.digest(),
		selfAgg:  n.aggAll(),
	}, nil
}

// Delete removes the exact entry with no request context; see DeleteCtx.
func (t *Tree) Delete(e Entry) error { return t.DeleteCtx(nil, e) }

// DeleteCtx removes the exact entry (matched by key and RID), maintaining
// digests on the path. Underfull nodes are left in place, as in bptree.
func (t *Tree) DeleteCtx(ctx *exec.Context, e Entry) error {
	dig, _, found, err := t.deleteAt(ctx, t.root, t.height, e)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("%w: key=%d rid=%v", ErrNotFound, e.Key, e.RID)
	}
	t.rootDigest = dig
	t.count--
	return nil
}

func (t *Tree) deleteAt(ctx *exec.Context, id pagestore.PageID, level int, e Entry) (digest.Digest, agg.Agg, bool, error) {
	n, err := t.readNode(ctx, id)
	if err != nil {
		return digest.Zero, agg.Agg{}, false, err
	}
	if level == 1 {
		for i := range n.entries {
			if Compare(n.entries[i], e) == 0 {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				if err := t.writeNode(ctx, id, n); err != nil {
					return digest.Zero, agg.Agg{}, false, err
				}
				return n.digest(), n.aggAll(), true, nil
			}
		}
		return digest.Zero, agg.Agg{}, false, nil
	}
	ci := upperBound(n.entries, e)
	childDig, childAgg, found, err := t.deleteAt(ctx, n.children[ci], level-1, e)
	if err != nil || !found {
		return digest.Zero, agg.Agg{}, found, err
	}
	n.digests[ci] = childDig
	n.aggs[ci] = childAgg
	if err := t.writeNode(ctx, id, n); err != nil {
		return digest.Zero, agg.Agg{}, false, err
	}
	return n.digest(), n.aggAll(), true, nil
}

// Validate recomputes every Merkle digest and aggregate annotation and
// checks ordering and bounds, returning an error on the first
// inconsistency.
func (t *Tree) Validate() error {
	seen := 0
	type summary struct {
		dig digest.Digest
		agg agg.Agg
	}
	var walk func(id pagestore.PageID, level int, lo, hi *Entry) (summary, error)
	walk = func(id pagestore.PageID, level int, lo, hi *Entry) (summary, error) {
		n, err := t.readNode(nil, id)
		if err != nil {
			return summary{}, err
		}
		if (level == 1) != n.leaf {
			return summary{}, fmt.Errorf("mbtree: node %d leaf flag inconsistent with level %d", id, level)
		}
		for i := 1; i < len(n.entries); i++ {
			if Compare(n.entries[i-1], n.entries[i]) >= 0 {
				return summary{}, fmt.Errorf("mbtree: node %d entries out of order at %d", id, i)
			}
		}
		for i := range n.entries {
			if lo != nil && Compare(n.entries[i], *lo) < 0 {
				return summary{}, fmt.Errorf("mbtree: node %d entry below lower bound", id)
			}
			if hi != nil && Compare(n.entries[i], *hi) >= 0 {
				return summary{}, fmt.Errorf("mbtree: node %d entry above upper bound", id)
			}
		}
		if n.leaf {
			seen += len(n.entries)
			return summary{dig: n.digest(), agg: n.aggAll()}, nil
		}
		if len(n.aggs) != len(n.children) {
			return summary{}, fmt.Errorf("mbtree: node %d has %d aggregate annotations for %d children", id, len(n.aggs), len(n.children))
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
				return summary{}, err
			}
			if sub.dig != n.digests[i] {
				return summary{}, fmt.Errorf("mbtree: node %d child %d digest mismatch", id, i)
			}
			if sub.agg.Normalize() != n.aggs[i].Normalize() {
				return summary{}, fmt.Errorf("mbtree: node %d child %d annotation %v, subtree is %v", id, i, n.aggs[i], sub.agg)
			}
		}
		return summary{dig: n.digest(), agg: n.aggAll()}, nil
	}
	s, err := walk(t.root, t.height, nil, nil)
	if err != nil {
		return err
	}
	if s.dig != t.rootDigest {
		return fmt.Errorf("mbtree: cached root digest stale")
	}
	if seen != t.count {
		return fmt.Errorf("mbtree: walked %d entries, tree says %d", seen, t.count)
	}
	return nil
}
