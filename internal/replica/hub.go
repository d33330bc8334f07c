// Package replica adds read replicas to a shard's SAE primary. A replica
// is bootstrapped from a sequence-stamped DurableSystem snapshot (the
// checkpoint's own byte format) and kept current by tailing the
// primary's WAL commit groups; it applies whole groups through the very
// core.ApplyGroup body the primary ran, so its pages, verification tokens
// and aggregate tokens stay bit-identical to the primary's at the same
// generation stamp — parity-tested, not assumed.
//
// Replicas need no new trust machinery: SAE verification is end-to-end,
// so any replica's answer must pass the same XOR-VT check a primary's
// would, and a corrupted or lagging replica can at worst fail loudly.
// What a replica must prove is freshness, which is why every verified
// answer carries the generation stamp of the commit group it was served
// at: the router (and paranoid clients) bound staleness against it.
package replica

import (
	"sync"

	"sae/internal/core"
	"sae/internal/wal"
)

// DefaultRetain is how many recent commit groups a hub keeps for delta
// catch-up before a lagging replica is pushed back to a full snapshot.
const DefaultRetain = 256

// Hub sits on a primary's group committer and retains the most recent
// commit groups for replica tailing. It is the primary-side half of the
// replication protocol: replicas pull groups after their own sequence,
// and when they have fallen behind the retention window the hub tells
// them to re-bootstrap from a fresh snapshot instead.
type Hub struct {
	ds *core.DurableSystem

	mu     sync.Mutex
	groups []wal.Group // retained groups, contiguous ascending sequences
	last   uint64      // sequence of the newest applied group
	retain int
}

// Attach hooks a hub onto ds's committer. Attach before the system sees
// write traffic (or while quiesced); retain <= 0 selects DefaultRetain.
func Attach(ds *core.DurableSystem, retain int) *Hub {
	if retain <= 0 {
		retain = DefaultRetain
	}
	h := &Hub{ds: ds, retain: retain, last: ds.Seq()}
	ds.Committer().SetCommitHook(h.onCommit)
	return h
}

// onCommit runs under the commit lock, once per applied group, in
// sequence order. The committer builds a fresh ops slice per group, so
// retaining it without a copy is safe.
func (h *Hub) onCommit(seq uint64, ops []wal.Op) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if seq != h.last+1 {
		// A sequence was skipped (an apply failed mid-stream). The ring
		// must stay contiguous or Since would hand out streams with holes;
		// drop it and force every tailer through a snapshot.
		h.groups = h.groups[:0]
	}
	h.groups = append(h.groups, wal.Group{Seq: seq, Ops: ops})
	if len(h.groups) > h.retain {
		// Copy down instead of reslicing so evicted groups are actually
		// released rather than pinned by the backing array.
		n := copy(h.groups, h.groups[len(h.groups)-h.retain:])
		for i := n; i < len(h.groups); i++ {
			h.groups[i] = wal.Group{}
		}
		h.groups = h.groups[:n]
	}
	h.last = seq
}

// Since returns up to max retained groups with sequences above after,
// plus the hub's newest sequence. snapshotNeeded reports that the
// retention window no longer reaches back to after — the tailer must
// re-bootstrap from Snapshot before pulling again. max <= 0 means all.
func (h *Hub) Since(after uint64, max int) (gs []wal.Group, snapshotNeeded bool, last uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if after >= h.last {
		return nil, false, h.last
	}
	if len(h.groups) == 0 || h.groups[0].Seq > after+1 {
		return nil, true, h.last
	}
	// Sequences are contiguous, so the first wanted group sits at a
	// computable offset.
	idx := int(after + 1 - h.groups[0].Seq)
	end := len(h.groups)
	if max > 0 && idx+max < end {
		end = idx + max
	}
	return append([]wal.Group(nil), h.groups[idx:end]...), false, h.last
}

// Snapshot cuts a sequence-stamped record dump at a commit boundary: the
// record set and the stamp belong to the same generation even under a
// live write burst. This is exactly the content a DurableSystem
// checkpoint would hold at that boundary.
func (h *Hub) Snapshot() (core.Snapshot, error) {
	return h.ds.SnapshotRecords()
}
