package core

import (
	"errors"
	"fmt"
	"sync"

	"sae/internal/costmodel"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/heapfile"
	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/wal"
)

// ShardedSystem runs the SAE protocol over a horizontally partitioned
// dataset: one SP/TE pair per contiguous key partition. A range query
// scatters to the shards whose spans it overlaps (each with its own
// request context), the results gather back in key order, and the
// per-shard verification tokens XOR-combine into one token the client
// checks exactly as in the single-system protocol — the VT of a range is
// the XOR fold of its records' digests, every record lives in exactly one
// partition, and XOR is associative, so splitting the fold across shards
// changes nothing.
type ShardedSystem struct {
	Owner  *DataOwner
	Plan   shard.Plan
	SPs    []*ServiceProvider
	TEs    []*TrustedEntity
	Client Client
}

// NewShardedSystem outsources a dataset (sorted by key) across `shards`
// key-range partitions over in-memory stores. Each party's trees hold its
// shard's whole index.
func NewShardedSystem(sorted []record.Record, shards int) (*ShardedSystem, error) {
	plan := shard.PlanFor(sorted, shards)
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	// Each shard's catalog sees only its own part, so an id repeated
	// across shards is caught over the whole dataset here.
	if _, err := heapfile.CatalogOf(sorted, make([]heapfile.RID, len(sorted))); err != nil {
		return nil, err
	}
	s := &ShardedSystem{
		Owner: &DataOwner{nextID: 1},
		Plan:  plan,
		SPs:   make([]*ServiceProvider, plan.Shards()),
		TEs:   make([]*TrustedEntity, plan.Shards()),
	}
	// Shards load concurrently: partitions are disjoint and each pair
	// touches only its own stores.
	parts := plan.Partition(sorted)
	systems := make([]*System, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			systems[i], errs[i] = NewSystem(parts[i])
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("core: loading shards: %w", err)
	}
	for i, sys := range systems {
		s.SPs[i], s.TEs[i] = sys.SP, sys.TE
		s.Owner.nextID = max(s.Owner.nextID, sys.Owner.nextID)
	}
	return s, nil
}

// ShardCost is one shard's contribution to a scattered query.
type ShardCost struct {
	Shard  int
	Sub    record.Range // the query clamped to this shard's span
	SPCost QueryCost
	TECost costmodel.Breakdown
}

// ShardedQueryOutcome captures one scattered, verified query round-trip.
type ShardedQueryOutcome struct {
	Result []record.Record
	// VT is the XOR combination of the per-shard verification tokens.
	VT digest.Digest
	// PerShard holds each overlapping shard's clamped sub-query and costs,
	// in shard order; non-overlapping shards do no work and do not appear.
	PerShard   []ShardCost
	ClientCost costmodel.Breakdown
	// VerifyErr is nil iff the merged result verified against the
	// combined token.
	VerifyErr error
}

// QueryCost returns the total work across all shards (sum-of-shards): the
// aggregate resources the deployment spent on this query.
func (o *ShardedQueryOutcome) QueryCost() QueryCost {
	var qc QueryCost
	for i := range o.PerShard {
		qc.Index = qc.Index.Add(o.PerShard[i].SPCost.Index)
		qc.Fetch = qc.Fetch.Add(o.PerShard[i].SPCost.Fetch)
	}
	return qc
}

// TECost returns the total token-generation work across all shards.
func (o *ShardedQueryOutcome) TECost() costmodel.Breakdown {
	var b costmodel.Breakdown
	for i := range o.PerShard {
		b = b.Add(o.PerShard[i].TECost)
	}
	return b
}

// ResponseTime models the client-perceived latency: all shards (and within
// a shard, the SP and TE) work in parallel, so the critical path is the
// slowest shard's slower party (max-over-shards), plus the client's
// verification of the merged result.
func (o *ShardedQueryOutcome) ResponseTime() costmodel.Breakdown {
	var slowest costmodel.Breakdown
	for i := range o.PerShard {
		c := o.PerShard[i].SPCost.Total()
		if t := o.PerShard[i].TECost; t.Total() > c.Total() {
			c = t
		}
		if c.Total() > slowest.Total() {
			slowest = c
		}
	}
	return slowest.Add(o.ClientCost)
}

// Query scatters a range query to the overlapping shards, gathers the
// results in key order, XOR-combines the per-shard tokens and verifies the
// merged result against the combined token.
func (s *ShardedSystem) Query(q record.Range) (*ShardedQueryOutcome, error) {
	subs := s.Plan.Scatter(q)
	if len(subs) == 0 {
		// An empty range touches no shard: zero records against the XOR
		// identity verifies trivially, matching the single-system outcome.
		out := &ShardedQueryOutcome{}
		out.ClientCost, out.VerifyErr = s.Client.Verify(q, nil, digest.Zero)
		return out, nil
	}
	type shardReply struct {
		part  shard.SAEPart
		cost  ShardCost
		spErr error
		vtErr error
	}
	replies := make([]shardReply, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			idx, sub := subs[i].Shard, subs[i].Sub
			r := &replies[i]
			r.cost.Shard = idx
			r.cost.Sub = sub
			// Each shard request gets its own execution context per party,
			// so the roll-up prices exactly this query's accesses no matter
			// how many queries are in flight.
			var inner sync.WaitGroup
			inner.Add(1)
			go func() {
				defer inner.Done()
				r.part.VT, r.cost.TECost, r.vtErr = s.TEs[idx].GenerateVTCtx(exec.NewContext(), sub)
			}()
			r.part.Recs, r.cost.SPCost, r.spErr = s.SPs[idx].QueryCtx(exec.NewContext(), sub)
			inner.Wait()
		}(i)
	}
	wg.Wait()

	out := &ShardedQueryOutcome{PerShard: make([]ShardCost, 0, len(subs))}
	parts := make([]shard.SAEPart, len(subs))
	for i := range replies {
		r := &replies[i]
		if r.spErr != nil {
			return nil, r.spErr
		}
		if r.vtErr != nil {
			return nil, r.vtErr
		}
		parts[i] = r.part
		out.PerShard = append(out.PerShard, r.cost)
	}
	out.Result, out.VT = shard.MergeSAE(parts)
	out.ClientCost, out.VerifyErr = s.Client.Verify(q, out.Result, out.VT)
	return out, nil
}

// Insert routes an owner-side insertion to the shard owning the key: an
// InsertBatch of one.
func (s *ShardedSystem) Insert(key record.Key) (record.Record, error) {
	return only(s.InsertBatch([]record.Key{key}))
}

// Delete routes an owner-side deletion to the shard owning the record's
// key: a DeleteBatch of one.
func (s *ShardedSystem) Delete(id record.ID) error {
	return s.DeleteBatch([]record.ID{id})
}

// InsertBatch synthesizes one fresh-id record per key and routes the
// batch BY SHARD: all records owned by one shard are applied as one
// group (one lock pass, one digest dispatch at its TE), and the per-
// shard groups run concurrently.
func (s *ShardedSystem) InsertBatch(keys []record.Key) ([]record.Record, error) {
	return s.Owner.commitInserts(keys, s.applyShardGroups)
}

// DeleteBatch removes the given ids, routing one group per owning shard,
// concurrently across shards. Unknown ids fail the whole batch before
// anything is applied.
func (s *ShardedSystem) DeleteBatch(ids []record.ID) error {
	return commitDeletes(ids, s.keyOf, s.applyShardGroups)
}

// keyOf asks each shard's SP for the key a live id is indexed under.
func (s *ShardedSystem) keyOf(id record.ID) (record.Key, bool) {
	for _, sp := range s.SPs {
		if key, ok := sp.keyOf(id); ok {
			return key, true
		}
	}
	return 0, false
}

// applyShardGroups splits a group by owning shard, admits every shard's
// ops against that shard's catalog and only then applies each through
// ApplyGroup, shards in parallel: a refused batch touches no shard.
func (s *ShardedSystem) applyShardGroups(all []wal.Op) error {
	groups := make(map[int][]wal.Op)
	for i := range all {
		sh := s.Plan.ShardFor(all[i].SearchKey())
		groups[sh] = append(groups[sh], all[i])
	}
	for sh, ops := range groups {
		if err := s.SPs[sh].admit(make(heapfile.Overlay, len(ops)), ops); err != nil {
			return fmt.Errorf("core: shard %d batch: %w", sh, err)
		}
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for sh, ops := range groups {
		wg.Add(1)
		go func(sh int, ops []wal.Op) {
			defer wg.Done()
			ctx := exec.GetContext()
			defer exec.PutContext(ctx)
			if err := ApplyGroup(ctx, s.Owner, s.SPs[sh], s.TEs[sh], ops); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("core: shard %d batch: %w", sh, err)
				}
				errMu.Unlock()
			}
		}(sh, ops)
	}
	wg.Wait()
	return firstErr
}

// StorageBytes returns the deployment's total footprint across shards.
func (s *ShardedSystem) StorageBytes() int64 {
	var n int64
	for i := range s.SPs {
		n += s.SPs[i].StorageBytes() + s.TEs[i].StorageBytes()
	}
	return n
}
