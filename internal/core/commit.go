package core

import (
	"cmp"
	"fmt"
	"sync"

	"sae/internal/exec"
	"sae/internal/heapfile"
	"sae/internal/record"
	"sae/internal/wal"
)

// DefaultMaxGroup caps how many pending updates one commit group
// coalesces. 128 keeps the WAL write under ~64 KiB while amortizing the
// fsync and the structure locks far past the point of diminishing
// returns (the win curve is flat beyond ~32).
const DefaultMaxGroup = 128

// CommitStats counts the committer's work: Ops/Groups is the achieved
// amortization factor, Syncs equals Groups when a WAL is attached (one
// fsync per group — the whole point) and is zero without one.
type CommitStats struct {
	Groups int64 // commit groups applied
	Ops    int64 // individual updates committed
	Syncs  int64 // WAL fsyncs issued
}

// CommitHook observes every successfully applied commit group. It runs
// under the commit lock, after the group is visible in both parties and
// before the next group can apply, so hooks see groups exactly once, in
// sequence order, at the very boundary the group became the system's
// state. The replication hub rides this to retain recent groups for
// replica tailing. Hooks must be fast and must not call back into the
// committer. frames is the group as the WAL wrote it (wal.EncodeGroup's
// bytes), in the log's buffer, which the next group overwrites: a hook
// that keeps them must copy them.
type CommitHook func(seq uint64, frames []byte)

// GroupCommitter coalesces concurrent Insert/Delete submissions into
// commit groups. Each group is logged with ONE WAL append + fsync,
// applied to the SP under ONE structure-lock acquisition and to the TE
// under ONE lock + ONE digest dispatch, and then every waiter is acked
// at once. A submission returns when its group is durable and visible.
// Before the append, the leader admits each submission against the SP's
// catalog and the submissions already admitted into the group; a refused
// one is acked with its own error and is never logged or applied.
//
// One background leader drains the queue; submitters only enqueue and
// wait, so the group size adapts to the offered load: an idle committer
// applies singleton groups with the latency of the serial path, a
// saturated one rides groups of maxGroup.
type GroupCommitter struct {
	owner *DataOwner
	sp    *ServiceProvider
	te    *TrustedEntity
	log   *wal.Log // may be nil: volatile mode (no durability, same grouping)

	// commitMu is held exclusively across a whole group's application to
	// both parties, and shared by DurableSystem.View, so every read view
	// sees the SP and the TE at the same group boundary — never one party
	// mid-group ahead of the other.
	commitMu sync.RWMutex

	// applied is the sequence of the last group whose application
	// completed — the system's generation stamp. Guarded by commitMu (it
	// advances only under the exclusive lock), so a read view observes a
	// stamp consistent with the state it reads.
	applied uint64
	hook    CommitHook // fired under commitMu after each applied group

	mu       sync.Mutex
	cond     *sync.Cond   // signaled on enqueue, group completion, and close
	queue    []submission // waiting submissions, in arrival order
	pending  int          // ops submitted and not yet acked
	inflight bool         // leader is committing a drained group
	stopped  bool
	done     chan struct{}

	stats CommitStats

	maxGroup int

	// The leader's own state, reused group after group: the sequence of
	// the last group it logged (set by OpenDurableSystem before the first
	// submission), the submissions it drained, their admitted ops
	// flattened into one group, and the admission overlay.
	seq     uint64
	taken   []submission
	group   []wal.Op
	overlay heapfile.Overlay
}

// submission is one SubmitOps call waiting in the queue: its ops by
// reference — the submitter blocks until the ack, so they stay put — the
// channel its outcome is sent on, and the leader's refusal, if any.
type submission struct {
	ops     []wal.Op
	errc    chan error
	refused error
}

// errcPool recycles the ack channels. Each carries exactly one send,
// which its submitter receives before putting it back.
var errcPool = sync.Pool{New: func() any { return make(chan error, 1) }}

// groupRetain caps the group buffer the leader keeps between groups, in
// ops: a rare oversize submission (a reshard's catch-up batch) should not
// pin its buffer.
const groupRetain = 4 * DefaultMaxGroup

// NewGroupCommitter starts a committer over the three SAE parties.
// log may be nil for volatile operation (grouping without durability);
// maxGroup <= 0 selects DefaultMaxGroup.
func NewGroupCommitter(owner *DataOwner, sp *ServiceProvider, te *TrustedEntity, log *wal.Log, maxGroup int) *GroupCommitter {
	if maxGroup <= 0 {
		maxGroup = DefaultMaxGroup
	}
	gc := &GroupCommitter{
		owner:    owner,
		sp:       sp,
		te:       te,
		log:      log,
		done:     make(chan struct{}),
		maxGroup: maxGroup,
		overlay:  make(heapfile.Overlay),
	}
	gc.cond = sync.NewCond(&gc.mu)
	go gc.run()
	return gc
}

// ApplyGroup is the one body that applies a commit group to an SAE
// deployment: the SP's ApplyBatchCtx, then the TE's, then the owner's
// fold. The group committer runs it under its commit lock before the
// ack, crash recovery per replayed WAL group, a replica per tailed group
// and the sharded system per shard; a single insert or delete is a group
// of one. ops must be a group the SP's catalog admitted: the committer,
// System and ShardedSystem admit before they apply, and the WAL and the
// replication feed carry only admitted groups. On error the owner is
// left unfolded and the parties may be torn (the SP ahead of the TE).
func ApplyGroup(ctx *exec.Context, owner *DataOwner, sp *ServiceProvider, te *TrustedEntity, ops []wal.Op) error {
	if err := sp.ApplyBatchCtx(ctx, ops); err != nil {
		return err
	}
	if err := te.ApplyBatchCtx(ctx, ops); err != nil {
		return err
	}
	owner.fold(ops)
	return nil
}

// only unwraps the result of an insert group of one.
func only(recs []record.Record, err error) (record.Record, error) {
	if err != nil {
		return record.Record{}, err
	}
	return recs[0], nil
}

// Insert synthesizes a record with a fresh id, commits it through the
// group pipeline and returns once it is durable and visible.
func (gc *GroupCommitter) Insert(key record.Key) (record.Record, error) {
	return only(gc.InsertBatch([]record.Key{key}))
}

// InsertBatch synthesizes one record per key and commits them as members
// of (at most) one group.
func (gc *GroupCommitter) InsertBatch(keys []record.Key) ([]record.Record, error) {
	return gc.owner.commitInserts(keys, gc.SubmitOps)
}

// Delete removes the record with the given id through the group
// pipeline.
func (gc *GroupCommitter) Delete(id record.ID) error {
	return gc.DeleteBatch([]record.ID{id})
}

// DeleteBatch removes the given ids as members of (at most) one group.
func (gc *GroupCommitter) DeleteBatch(ids []record.ID) error {
	return commitDeletes(ids, gc.sp.keyOf, gc.SubmitOps)
}

// SubmitOps enqueues pre-built ops (a wire primary and a reshard target
// use this for records a remote owner already synthesized) and waits for
// their group to commit. The ops commit together or not at all: the
// leader admits them against the SP's catalog before the WAL append, and
// a batch that inserts a live id, or deletes an id that is not live or
// under another key, gets its own error while its group-mates commit.
// The group's owner fold has run by the time it returns. The committer
// reads ops until then and keeps nothing of it: the caller may overwrite
// or reuse the slice as soon as SubmitOps returns.
func (gc *GroupCommitter) SubmitOps(ops []wal.Op) error {
	if len(ops) == 0 {
		return nil
	}
	return gc.submitWait(ops)
}

// submitWait enqueues ops as one submission and blocks until its group
// commits. All ops of one call land in the same group (the leader never
// splits a submission).
func (gc *GroupCommitter) submitWait(ops []wal.Op) error {
	errc := errcPool.Get().(chan error)
	gc.mu.Lock()
	if gc.stopped {
		gc.mu.Unlock()
		errcPool.Put(errc)
		return fmt.Errorf("core: group committer is closed")
	}
	gc.queue = append(gc.queue, submission{ops: ops, errc: errc})
	gc.pending += len(ops)
	gc.cond.Broadcast()
	gc.mu.Unlock()
	err := <-errc
	errcPool.Put(errc)
	return err
}

// run is the group leader: it drains the queue into groups of at most
// maxGroup and commits each group.
func (gc *GroupCommitter) run() {
	defer close(gc.done)
	gc.mu.Lock()
	for {
		for len(gc.queue) == 0 && !gc.stopped {
			gc.cond.Wait()
		}
		if len(gc.queue) == 0 && gc.stopped {
			gc.mu.Unlock()
			return
		}
		// Take whole submissions until the group holds maxGroup ops. A
		// submission's ops share an ack and must commit atomically, so
		// the one that straddles the cap goes whole (it is one caller's
		// batch, so the overshoot is bounded).
		n, ops := 0, 0
		for n < len(gc.queue) && ops < gc.maxGroup {
			ops += len(gc.queue[n].ops)
			n++
		}
		gc.taken = append(gc.taken[:0], gc.queue[:n]...)
		rest := copy(gc.queue, gc.queue[n:])
		clear(gc.queue[rest:]) // the queue must not pin acked submissions
		gc.queue = gc.queue[:rest]
		gc.inflight = true
		gc.mu.Unlock()

		gc.commitGroup(gc.taken)

		gc.mu.Lock()
		gc.inflight = false
		gc.cond.Broadcast()
	}
}

// commitGroup admits the drained submissions, makes the admitted ones
// durable and visible as one group — in both parties and in the owner's
// watermark — counts it, then acks every waiter. Order matters: the WAL
// fsync precedes visibility, so an acked update is always recoverable and
// an unacked one never partially escapes a crash (the replay drops
// uncommitted tails); the count precedes the acks, so Stats read by an
// acked submitter includes its group. The admitted ops are flattened into
// the leader's group buffer, which the WAL and both parties only read;
// the hook gets the frames the WAL wrote. A group whose every submission
// was refused takes no sequence number, so the log and the replication
// feed stay gapless.
func (gc *GroupCommitter) commitGroup(subs []submission) {
	gc.admit(subs)
	ops, taken := gc.group[:0], 0
	for i := range subs {
		taken += len(subs[i].ops)
		if subs[i].refused == nil {
			ops = append(ops, subs[i].ops...)
		}
	}
	if cap(ops) <= groupRetain {
		gc.group = ops
	}
	var err error
	if len(ops) > 0 {
		gc.seq++
		var frames []byte
		if gc.log != nil {
			frames, err = gc.log.Append(gc.seq, ops)
		}
		if err == nil {
			ctx := exec.GetContext()
			gc.commitMu.Lock()
			if err = ApplyGroup(ctx, gc.owner, gc.sp, gc.te, ops); err == nil {
				gc.applied = gc.seq
				if gc.hook != nil {
					gc.hook(gc.seq, frames)
				}
			}
			gc.commitMu.Unlock()
			exec.PutContext(ctx)
		}
	}
	gc.mu.Lock()
	if len(ops) > 0 {
		gc.stats.Groups++
		if gc.log != nil {
			gc.stats.Syncs++
		}
	}
	gc.stats.Ops += int64(len(ops))
	gc.pending -= taken
	gc.mu.Unlock()
	for i := range subs {
		subs[i].errc <- cmp.Or(subs[i].refused, err)
	}
	clear(subs) // the acked submitters own their ops again
}

// admit checks each drained submission, in order, against the SP's
// catalog as changed by the submissions admitted before it, and marks a
// refused one with its error. The overlay is the leader's, cleared for
// each group; a refused submission may have left effects in it, so it is
// rebuilt from the admitted ones.
func (gc *GroupCommitter) admit(subs []submission) {
	clear(gc.overlay)
	for i := range subs {
		if subs[i].refused = gc.sp.admit(gc.overlay, subs[i].ops); subs[i].refused == nil {
			continue
		}
		clear(gc.overlay)
		for j := range subs[:i] {
			if subs[j].refused == nil {
				gc.sp.admit(gc.overlay, subs[j].ops)
			}
		}
	}
}

// SetCommitHook installs the commit observer; only a committer with a
// WAL has frames to hand it. Install it before the committer sees traffic
// (or while quiesced): the hook is read under the commit lock, but a
// group committing concurrently with the install may run either with or
// without it.
func (gc *GroupCommitter) SetCommitHook(h CommitHook) {
	if gc.log == nil {
		panic("core: a commit hook needs a WAL")
	}
	gc.commitMu.Lock()
	gc.hook = h
	gc.commitMu.Unlock()
}

// AppliedSeq returns the generation stamp: the sequence of the last
// commit group visible in both parties.
func (gc *GroupCommitter) AppliedSeq() uint64 {
	gc.commitMu.RLock()
	defer gc.commitMu.RUnlock()
	return gc.applied
}

// Stats returns the committer's counters.
func (gc *GroupCommitter) Stats() CommitStats {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.stats
}

// Pending returns how many submitted ops are not yet acked: those queued
// for the leader and those of the group it is committing.
func (gc *GroupCommitter) Pending() int {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.pending
}

// Quiesce blocks until every update submitted before the call has
// committed (the reshard freeze barrier).
func (gc *GroupCommitter) Quiesce() {
	gc.mu.Lock()
	for len(gc.queue) > 0 || gc.inflight {
		gc.cond.Wait()
	}
	gc.mu.Unlock()
}

// Close drains pending submissions, stops the leader and (when attached)
// closes the WAL. Further submissions fail.
func (gc *GroupCommitter) Close() error {
	gc.mu.Lock()
	alreadyStopped := gc.stopped
	gc.stopped = true
	gc.cond.Broadcast()
	gc.mu.Unlock()
	<-gc.done
	// The leader exits only with an empty queue, so everything submitted
	// before Close was acked.
	if gc.log != nil && !alreadyStopped {
		return gc.log.Close()
	}
	return nil
}
