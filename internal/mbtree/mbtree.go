// Package mbtree implements the MB-Tree (Merkle B+-tree, Li et al.
// SIGMOD'06), the state-of-the-art authenticated data structure the paper
// uses as the TOM baseline.
//
// The MB-Tree is package bptree's B+-tree instantiated with a digest per
// entry: a leaf entry's value is the hash of its record's binary
// representation, and a child pointer's value is the digest of the child
// page (nodeDigest). The data owner signs the digest of the root page; the
// service provider answers a range query with a verification object (VO)
// from which the client re-derives the root digest and matches it against
// the signature. This package holds only what is the MB-Tree's own: the
// digest summary, and building and checking VOs (vo.go,
// aggvo.go); the tree structure is bptree's.
//
// Entry digests inflate every node by 20 bytes per entry, which is exactly
// why the MB-Tree's fanout — and therefore the SP's query performance in
// TOM — trails the plain B+-tree used by SAE.
package mbtree

import (
	"encoding/binary"

	"sae/internal/agg"
	"sae/internal/bptree"
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

func (e Entry) keyRID() bptree.Entry { return bptree.Entry{Key: e.Key, RID: e.RID} }

// node is one MB-Tree node: Vals holds the record digests of a leaf's
// entries, and the node digests of an internal node's children.
type node = bptree.Node[digest.Digest]

// Tree is a disk-based MB-Tree.
type Tree struct {
	*bptree.Annotated[digest.Digest]
}

// LeafCapacity (136) and InnerCapacity (69) are the MB-Tree's fanouts.
var LeafCapacity, InnerCapacity = bptree.Capacities(digest.Size)

var merkle = &bptree.Kind[digest.Digest]{
	Name:    "mbtree",
	Size:    digest.Size,
	Summary: nodeDigest,
}

// nodeDigest computes a node's Merkle digest. The hash stream binds
// everything a verifier reasons about:
//
//	leaf:     per entry  key(4) || recordDigest(20)
//	internal: dig0(20) || agg0(24), then per child i >= 1:
//	          sepKey(4) || dig_i(20) || agg_i(24)
//
// Binding the keys and separators (not just the child digests) lets VO
// verification prove which key range each pruned child covers, and binding
// the aggregates makes the annotations as tamper-evident as the records.
// VerifyVO's replay must write the exact same byte stream.
func nodeDigest(n *node) digest.Digest {
	w := digest.NewConcatWriter()
	if n.Leaf {
		for i := range n.Entries {
			writeKeyTo(w, n.Entries[i].Key)
			w.Add(n.Vals[i])
		}
		return w.Sum()
	}
	w.Add(n.Vals[0])
	writeAggTo(w, n.Aggs[0])
	for i := range n.Entries {
		writeKeyTo(w, n.Entries[i].Key)
		w.Add(n.Vals[i+1])
		writeAggTo(w, n.Aggs[i+1])
	}
	return w.Sum()
}

// writeKeyTo appends a key to a digest stream as nodeDigest encodes it.
func writeKeyTo(w *digest.ConcatWriter, k record.Key) {
	var kb [4]byte
	binary.BigEndian.PutUint32(kb[:], uint32(k))
	w.Write(kb[:])
}

// writeAggTo appends an aggregate annotation to a digest stream as
// nodeDigest encodes it.
func writeAggTo(w *digest.ConcatWriter, a agg.Agg) {
	var ab [agg.Size]byte
	a.PutBytes(ab[:])
	w.Write(ab[:])
}

// New creates an empty tree.
func New(store pagestore.Store) (*Tree, error) {
	t, err := bptree.NewAnnotated(store, merkle)
	if err != nil {
		return nil, err
	}
	return &Tree{t}, nil
}

// Bulkload builds a tree from entries strictly ascending by key then RID,
// computing all Merkle digests bottom-up. This is the ADS the data owner
// constructs and ships to the SP under TOM.
func Bulkload(store pagestore.Store, entries []Entry) (*Tree, error) {
	keys := make([]bptree.Entry, len(entries))
	digs := make([]digest.Digest, len(entries))
	for i, e := range entries {
		keys[i], digs[i] = e.keyRID(), e.Digest
	}
	t, err := bptree.BulkloadAnnotated(store, merkle, keys, digs)
	if err != nil {
		return nil, err
	}
	return &Tree{t}, nil
}

// RootDigest returns the Merkle digest of the root page — the value the
// data owner signs.
func (t *Tree) RootDigest() digest.Digest { return t.Summary() }

// InsertCtx adds an entry, maintaining Merkle digests along the path. The
// new root digest (which the owner must re-sign) is available via
// RootDigest.
func (t *Tree) InsertCtx(ctx *exec.Context, e Entry) error {
	return t.Annotated.InsertCtx(ctx, e.keyRID(), e.Digest)
}

// DeleteCtx removes the exact entry (matched by key and RID; the digest is
// ignored), maintaining digests on the path.
func (t *Tree) DeleteCtx(ctx *exec.Context, e Entry) error {
	return t.Annotated.DeleteCtx(ctx, e.keyRID())
}
