package core

import (
	"fmt"
	"sync"

	"sae/internal/exec"
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
// committer.
type CommitHook func(seq uint64, ops []wal.Op)

// GroupCommitter coalesces concurrent Insert/Delete submissions into
// commit groups. Each group is logged with ONE WAL append + fsync,
// applied to the SP under ONE structure-lock acquisition and to the TE
// under ONE lock + ONE digest dispatch, and then every waiter is acked
// at once. A submission returns when its group is durable and visible.
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
	// both parties, and shared by ReadView, so every read view sees the
	// SP and the TE at the same group boundary — never one party mid-group
	// ahead of the other.
	commitMu sync.RWMutex

	// applied is the sequence of the last group whose application
	// completed — the system's generation stamp. Guarded by commitMu (it
	// advances only under the exclusive lock), so a ReadView observes a
	// stamp consistent with the state it reads.
	applied uint64
	hook    CommitHook // fired under commitMu after each applied group

	mu       sync.Mutex
	cond     *sync.Cond // signaled on enqueue, group completion, and close
	queue    []pendingOp
	inflight bool // leader is committing a drained group
	stopped  bool
	done     chan struct{}

	seq   uint64 // WAL group sequence; guarded by mu
	stats CommitStats

	maxGroup int
}

type pendingOp struct {
	op   wal.Op
	errc chan error
}

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
// of one. On error the owner is left unfolded and the parties may be
// torn (the SP ahead of the TE).
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
	return gc.owner.commitDeletes(ids, gc.SubmitOps)
}

// SubmitOps enqueues pre-built ops (a wire primary and a reshard target
// use this for records a remote owner already synthesized) and waits for
// their group to commit. The group's owner fold has run by the time it
// returns.
func (gc *GroupCommitter) SubmitOps(ops []wal.Op) error {
	if len(ops) == 0 {
		return nil
	}
	return gc.submitWait(ops)
}

// submitWait enqueues ops sharing one ack channel and blocks until their
// group commits. All ops of one call land in the same group (the leader
// never splits a submission).
func (gc *GroupCommitter) submitWait(ops []wal.Op) error {
	errc := make(chan error, 1)
	gc.mu.Lock()
	if gc.stopped {
		gc.mu.Unlock()
		return fmt.Errorf("core: group committer is closed")
	}
	for i := range ops {
		ec := (chan error)(nil)
		if i == len(ops)-1 {
			ec = errc // ack once per submission, on its last op
		}
		gc.queue = append(gc.queue, pendingOp{op: ops[i], errc: ec})
	}
	gc.cond.Broadcast()
	gc.mu.Unlock()
	return <-errc
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
		n := len(gc.queue)
		if n > gc.maxGroup {
			// Never split one submission's ops across groups: they share
			// an ack and must commit atomically. Extend to the end of the
			// submission that straddles the cap (a submission is at most
			// one caller's batch, so the overshoot is bounded).
			n = gc.maxGroup
			for n < len(gc.queue) && gc.queue[n-1].errc == nil {
				n++
			}
		}
		group := gc.queue[:n:n]
		gc.queue = gc.queue[n:]
		gc.inflight = true
		gc.seq++
		seq := gc.seq
		gc.mu.Unlock()

		gc.commitGroup(seq, group)

		gc.mu.Lock()
		gc.inflight = false
		gc.cond.Broadcast()
	}
}

// commitGroup makes one group durable and visible — in both parties and
// in the owner's map — counts it, then acks
// every waiter. Order matters: the WAL fsync precedes visibility, so an
// acked update is always recoverable and an unacked one never partially
// escapes a crash (the replay drops uncommitted tails); the count
// precedes the acks, so Stats read by an acked submitter includes its
// group.
func (gc *GroupCommitter) commitGroup(seq uint64, group []pendingOp) {
	ops := make([]wal.Op, len(group))
	for i := range group {
		ops[i] = group[i].op
	}
	var err error
	if gc.log != nil {
		err = gc.log.AppendGroup(seq, ops)
	}
	if err == nil {
		ctx := exec.GetContext()
		gc.commitMu.Lock()
		if err = ApplyGroup(ctx, gc.owner, gc.sp, gc.te, ops); err == nil {
			gc.applied = seq
			if gc.hook != nil {
				gc.hook(seq, ops)
			}
		}
		gc.commitMu.Unlock()
		exec.PutContext(ctx)
	}
	gc.mu.Lock()
	gc.stats.Groups++
	gc.stats.Ops += int64(len(group))
	if gc.log != nil {
		gc.stats.Syncs++
	}
	gc.mu.Unlock()
	for i := range group {
		if group[i].errc != nil {
			group[i].errc <- err
		}
	}
}

// SetCommitHook installs the commit observer. Install it before the
// committer sees traffic (or while quiesced): the hook is read under the
// commit lock, but a group committing concurrently with the install may
// run either with or without it.
func (gc *GroupCommitter) SetCommitHook(h CommitHook) {
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

// ReadView runs f with the commit lock held shared: no group can apply
// while f runs, so everything f reads from the SP and the TE belongs to
// the single generation stamp it is handed. This is what lets one
// response carry records, a verification token and a generation stamp
// that are mutually consistent even under a concurrent write burst.
func (gc *GroupCommitter) ReadView(f func(seq uint64) error) error {
	gc.commitMu.RLock()
	defer gc.commitMu.RUnlock()
	return f(gc.applied)
}

// Stats returns the committer's counters.
func (gc *GroupCommitter) Stats() CommitStats {
	gc.mu.Lock()
	defer gc.mu.Unlock()
	return gc.stats
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
