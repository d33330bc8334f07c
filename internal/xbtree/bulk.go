package xbtree

import (
	"fmt"

	"sae/internal/agg"
	"sae/internal/digest"
	"sae/internal/pagestore"
	"sae/internal/record"
)

// KeyTuples is a bulk-load item: one distinct search key and the tuples of
// all records carrying it.
type KeyTuples struct {
	Key    record.Key
	Tuples []Tuple
}

// Bulkload builds an XB-Tree from items sorted by strictly ascending key.
// Leaves are packed to capacity with single separator entries pulled up
// between them (the classic bottom-up B-tree build), and all X values are
// computed during construction. This is how the TE indexes the data owner's
// initial transfer.
func Bulkload(store pagestore.Store, items []KeyTuples) (*Tree, error) {
	for i := range items {
		if i > 0 && items[i-1].Key >= items[i].Key {
			return nil, fmt.Errorf("xbtree: bulkload keys not strictly ascending at %d", i)
		}
		if len(items[i].Tuples) == 0 {
			return nil, fmt.Errorf("xbtree: bulkload item %d has no tuples", i)
		}
	}
	if len(items) == 0 {
		return New(store)
	}
	t := newTree(store)

	// Materialize every tuple list up front.
	type loaded struct {
		sk    record.Key
		lref  listRef
		lxor  digest.Digest
		count uint32
	}
	refs, err := t.lists.allocBulk(items)
	if err != nil {
		return nil, err
	}
	flat := make([]loaded, len(items))
	for i, it := range items {
		var acc digest.Accumulator
		for _, tup := range it.Tuples {
			acc.Add(tup.Digest)
		}
		flat[i] = loaded{sk: it.Key, lref: refs[i], lxor: acc.Sum(), count: uint32(len(it.Tuples))}
		t.tuples += len(it.Tuples)
	}

	// Build the leaf level: runs of LeafCapacity entries separated by one
	// pulled-up item each.
	type builtNode struct {
		id   pagestore.PageID
		agg  digest.Digest
		aggA agg.Agg
	}
	var nodes []builtNode
	var seps []loaded
	for i := 0; i < len(flat); {
		chunk := LeafCapacity
		if rem := len(flat) - i; chunk > rem {
			chunk = rem
		}
		if len(flat)-i-chunk == 1 {
			chunk-- // never strand a separator without a right sibling
		}
		n := &xnode{leaf: true, entries: newEntries(true, 0)}
		for _, it := range flat[i : i+chunk] {
			n.entries = append(n.entries, entry{sk: it.sk, lref: it.lref, x: it.lxor, child: pagestore.InvalidPage, listCount: it.count})
		}
		id, err := t.allocNode(nil, n)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, builtNode{id: id, agg: n.agg(), aggA: n.aggAll()})
		i += chunk
		if i < len(flat) {
			seps = append(seps, flat[i])
			i++
		}
	}

	// Build internal levels until one node remains. seps[k] sits between
	// nodes[k] and nodes[k+1].
	t.height = 1
	for len(nodes) > 1 {
		var upNodes []builtNode
		var upSeps []loaded
		for j := 0; j < len(nodes); {
			rem := len(nodes) - j
			g := InnerCapacity
			if g > rem-1 {
				g = rem - 1
			}
			if rem-(g+1) == 1 {
				g-- // leave the trailing node a sibling and separator
			}
			n := &xnode{leaf: false, e0C: nodes[j].id, e0X: nodes[j].agg, e0Agg: nodes[j].aggA, entries: newEntries(false, 0)}
			for k := 0; k < g; k++ {
				s := seps[j+k]
				child := nodes[j+k+1]
				n.entries = append(n.entries, entry{
					sk:        s.sk,
					lref:      s.lref,
					x:         s.lxor.XOR(child.agg),
					child:     child.id,
					listCount: s.count,
					childAgg:  child.aggA,
				})
			}
			id, err := t.allocNode(nil, n)
			if err != nil {
				return nil, err
			}
			upNodes = append(upNodes, builtNode{id: id, agg: n.agg(), aggA: n.aggAll()})
			j += g + 1
			if j < len(nodes) {
				upSeps = append(upSeps, seps[j-1])
			}
		}
		nodes, seps = upNodes, upSeps
		t.height++
	}
	t.root = nodes[0].id
	return t, nil
}

// Lookup returns the tuples stored under key, or ok == false if the key has
// never been inserted. Tombstoned keys return an empty slice and ok == true.
func (t *Tree) Lookup(key record.Key) ([]Tuple, bool, error) {
	id := t.root
	for {
		n, err := t.readNode(nil, id)
		if err != nil {
			return nil, false, err
		}
		pos, ok := searchEntries(n.entries, key)
		if ok {
			ts, err := t.lists.read(nil, n.entries[pos].lref)
			return ts, true, err
		}
		if n.leaf {
			return nil, false, nil
		}
		if pos == 0 {
			id = n.e0C
		} else {
			id = n.entries[pos-1].child
		}
	}
}

// Validate checks every structural and cryptographic invariant of the tree:
// strict key ordering within and across nodes, child pointers consistent
// with leaf level, the XB-Tree's defining property — that every entry's X
// equals its list's XOR combined with its child subtree's aggregate — and
// the (COUNT, SUM, MIN, MAX) annotations (listCount against the actual
// list, childAgg/e0.agg against the recomputed subtree aggregate). It
// recomputes everything from the nodes and the list pages, so tests can
// run it after arbitrary operation interleavings.
func (t *Tree) Validate() error {
	tuples := 0
	type subSummary struct {
		x digest.Digest
		a agg.Agg
	}
	var walk func(id pagestore.PageID, level int, lo, hi *record.Key) (subSummary, error)
	walk = func(id pagestore.PageID, level int, lo, hi *record.Key) (subSummary, error) {
		n, err := t.readNode(nil, id)
		if err != nil {
			return subSummary{}, err
		}
		if (level == 1) != n.leaf {
			return subSummary{}, fmt.Errorf("xbtree: node %d leaf flag inconsistent with level %d", id, level)
		}
		for i := range n.entries {
			e := &n.entries[i]
			if i > 0 && n.entries[i-1].sk >= e.sk {
				return subSummary{}, fmt.Errorf("xbtree: node %d keys not strictly ascending at %d", id, i)
			}
			if lo != nil && e.sk <= *lo {
				return subSummary{}, fmt.Errorf("xbtree: node %d key %d violates lower bound %d", id, e.sk, *lo)
			}
			if hi != nil && e.sk >= *hi {
				return subSummary{}, fmt.Errorf("xbtree: node %d key %d violates upper bound %d", id, e.sk, *hi)
			}
		}
		var acc digest.Accumulator
		var agr agg.Agg
		if !n.leaf {
			// e0 covers keys below the first entry.
			e0Hi := hi
			if len(n.entries) > 0 {
				e0Hi = &n.entries[0].sk
			}
			sub, err := walk(n.e0C, level-1, lo, e0Hi)
			if err != nil {
				return subSummary{}, err
			}
			if n.e0X != sub.x {
				return subSummary{}, fmt.Errorf("xbtree: node %d e0.X mismatch", id)
			}
			if n.e0Agg.Normalize() != sub.a.Normalize() {
				return subSummary{}, fmt.Errorf("xbtree: node %d e0 annotation %v, subtree is %v", id, n.e0Agg, sub.a)
			}
			acc.Add(n.e0X)
			agr = sub.a
		}
		for i := range n.entries {
			e := &n.entries[i]
			lx, err := t.checkList(id, e)
			if err != nil {
				return subSummary{}, err
			}
			tuples += int(e.listCount)
			// A leaf entry has no subtree: its X is its list's XOR alone.
			var sub subSummary
			if n.leaf {
				if e.child != pagestore.InvalidPage {
					return subSummary{}, fmt.Errorf("xbtree: leaf %d entry %d has a child", id, i)
				}
			} else {
				nextHi := hi
				if i+1 < len(n.entries) {
					nextHi = &n.entries[i+1].sk
				}
				if sub, err = walk(e.child, level-1, &e.sk, nextHi); err != nil {
					return subSummary{}, err
				}
				if e.childAgg.Normalize() != sub.a.Normalize() {
					return subSummary{}, fmt.Errorf("xbtree: node %d entry sk=%d annotation %v, subtree is %v", id, e.sk, e.childAgg, sub.a)
				}
			}
			if e.x != lx.XOR(sub.x) {
				return subSummary{}, fmt.Errorf("xbtree: node %d entry sk=%d X invariant violated", id, e.sk)
			}
			acc.Add(e.x)
			agr = agr.Merge(e.ownAgg()).Merge(sub.a)
		}
		return subSummary{x: acc.Sum(), a: agr}, nil
	}
	if _, err := walk(t.root, t.height, nil, nil); err != nil {
		return err
	}
	if tuples != t.tuples {
		return fmt.Errorf("xbtree: walked %d tuples, tree says %d", tuples, t.tuples)
	}
	return nil
}

// checkList reads e's tuple list, checks e.listCount against it, and
// returns the list's XOR (L⊕).
func (t *Tree) checkList(id pagestore.PageID, e *entry) (digest.Digest, error) {
	ts, err := t.lists.read(nil, e.lref)
	if err != nil {
		return digest.Zero, err
	}
	if int(e.listCount) != len(ts) {
		return digest.Zero, fmt.Errorf("xbtree: node %d entry sk=%d listCount=%d, list has %d", id, e.sk, e.listCount, len(ts))
	}
	var lx digest.Accumulator
	for _, tup := range ts {
		lx.Add(tup.Digest)
	}
	return lx.Sum(), nil
}
