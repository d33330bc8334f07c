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
	"io"
	"sync"

	"sae/internal/core"
)

// DefaultRetain is how many recent commit groups a hub keeps for delta
// catch-up before a lagging replica is pushed back to a full snapshot.
const DefaultRetain = 256

// Hub sits on a primary's group committer and retains the most recent
// commit groups for replica tailing. It is the primary-side half of the
// replication protocol: replicas pull groups after their own sequence,
// and when they have fallen behind the retention window the hub tells
// them to re-bootstrap from a fresh snapshot instead.
//
// The hub copies each group's WAL frames, as the committer wrote them,
// back to back into one byte log whose evicted front is reused: a group
// is appended at the end, and when the end reaches the log's capacity
// the retained groups move down over the evicted ones.
type Hub struct {
	ds *core.DurableSystem

	mu     sync.Mutex
	log    []byte  // retained groups' WAL frames, oldest first
	base   int64   // position of log[0] in the stream of every group appended
	starts []int64 // starts[seq%retain]: stream position of group seq
	first  uint64  // sequence of the oldest retained group; > last when none
	last   uint64  // sequence of the newest applied group
	retain int
}

// Attach hooks a hub onto ds's committer. Attach before the system sees
// write traffic (or while quiesced); retain <= 0 selects DefaultRetain.
func Attach(ds *core.DurableSystem, retain int) *Hub {
	if retain <= 0 {
		retain = DefaultRetain
	}
	last := ds.Seq()
	h := &Hub{ds: ds, starts: make([]int64, retain), first: last + 1, last: last, retain: retain}
	ds.Committer().SetCommitHook(h.onCommit)
	return h
}

// onCommit runs under the commit lock, once per applied group, in
// sequence order. frames is the WAL's buffer, which the next group
// overwrites, so the hub copies the group into its own log before
// returning.
func (h *Hub) onCommit(seq uint64, frames []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if seq != h.last+1 {
		// A sequence was skipped (an apply failed mid-stream). The log
		// must stay contiguous or a pull would hand out a stream with
		// holes; drop it and force every tailer through a snapshot.
		h.first = seq
	}
	h.last = seq
	if seq-h.first >= uint64(h.retain) {
		h.first = seq - uint64(h.retain) + 1
	}
	h.reserve(len(frames))
	h.starts[seq%uint64(h.retain)] = h.base + int64(len(h.log))
	h.log = append(h.log, frames...)
}

// reserve makes room for n more bytes at the end of the log for group
// h.last. It drops the bytes of groups no longer retained from the front
// first, and grows the log only when the retained groups and n do not
// fit: so the log holds at most twice what it retains, and makes no
// garbage once it has grown to that.
func (h *Hub) reserve(n int) {
	if len(h.log)+n <= cap(h.log) {
		return
	}
	dead := len(h.log) // the new group is the only one retained
	if h.first < h.last {
		dead = int(h.starts[h.first%uint64(h.retain)] - h.base)
	}
	live := h.log[dead:]
	if len(live)+n > cap(h.log) {
		grown := make([]byte, len(live), 2*(len(live)+n))
		copy(grown, live)
		h.log = grown
	} else {
		h.log = h.log[:copy(h.log, live)]
	}
	h.base += int64(dead)
}

// AppendSince appends to buf the WAL frames of up to max retained groups
// with sequences above after (max <= 0 means all), and returns the
// extended buffer and the hub's newest sequence. snapshotNeeded reports
// that the retention window no longer reaches back to after — the tailer
// must re-bootstrap from a snapshot before pulling again. The frames are
// copied out of the log under the hub's lock, so buf is the caller's
// alone.
func (h *Hub) AppendSince(buf []byte, after uint64, max int) (out []byte, snapshotNeeded bool, last uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if after >= h.last {
		return buf, false, h.last
	}
	if after+1 < h.first {
		return buf, true, h.last
	}
	from, to := h.starts[(after+1)%uint64(h.retain)]-h.base, int64(len(h.log))
	if max > 0 && after+uint64(max) < h.last {
		to = h.starts[(after+uint64(max)+1)%uint64(h.retain)] - h.base
	}
	return append(buf, h.log[from:to]...), false, h.last
}

// WriteSnapshot writes a sequence-stamped record dump cut at a commit
// boundary to w: the record set and the stamp belong to the same
// generation even under a live write burst. These are exactly the bytes
// a DurableSystem checkpoint would hold at that boundary
// (core.DurableSystem.WriteSnapshot).
func (h *Hub) WriteSnapshot(w io.Writer) error { return h.ds.WriteSnapshot(w) }
