package shard

import (
	"sae/internal/digest"
	"sae/internal/record"
)

// This file holds the one shared implementation of scattering a range
// query across a plan and gathering the per-shard answers back into a
// single verified result. Every scatter-gather path in the tree — the
// in-process sharded system (core), the shard-aware wire client,
// and the router tier — goes through these helpers, so the key-order
// merge and the XOR combination are defined exactly once.

// SubQuery is one shard's clamped slice of a scattered range query.
type SubQuery struct {
	Shard int
	Sub   record.Range
}

// Scatter computes the per-shard sub-queries of q: the overlapping
// shards in shard order, each with q clamped to its span. The sub-ranges
// are non-empty, disjoint, and tile q with no gaps (the Plan invariant),
// so concatenating the shards' key-ordered sub-results in the returned
// order is the key-order merge of the whole result. An empty q scatters
// to no shard.
func (p Plan) Scatter(q record.Range) []SubQuery {
	first, last, ok := p.Overlapping(q)
	if !ok {
		return nil
	}
	subs := make([]SubQuery, last-first+1)
	for i := range subs {
		idx := first + i
		subs[i] = SubQuery{Shard: idx, Sub: p.Clamp(idx, q)}
	}
	return subs
}

// SAEPart is one shard's contribution to a scattered SAE query: its
// sub-result (in key order) and the verification token covering it.
type SAEPart struct {
	Recs []record.Record
	VT   digest.Digest
}

// MergeSAE gathers per-shard SAE parts, in the shard order produced by
// Scatter, into the merged result and the combined verification token.
// Contiguous partitions make the shard-order concatenation the key-order
// merge, and the XOR fold of the per-shard tokens is exactly the token a
// single trusted entity over the whole dataset would have issued for the
// query — every record lives in one partition and XOR is associative.
func MergeSAE(parts []SAEPart) ([]record.Record, digest.Digest) {
	n := 0
	for i := range parts {
		n += len(parts[i].Recs)
	}
	var merged []record.Record
	if n > 0 {
		merged = make([]record.Record, 0, n)
	}
	var acc digest.Accumulator
	for i := range parts {
		merged = append(merged, parts[i].Recs...)
		acc.Add(parts[i].VT)
	}
	return merged, acc.Sum()
}
