package tom

import (
	"fmt"
	"sync"
	"time"

	"sae/internal/agg"
	"sae/internal/costmodel"
	"sae/internal/exec"
	"sae/internal/mbtree"
	"sae/internal/record"
	"sae/internal/shard"
)

// TOM's aggregation fast path. Under TOM the provider cannot just assert
// a scalar — there is no trusted party to token it — so the answer IS the
// evidence: an aggregate VO over the MB-Tree's annotated internal nodes
// (mbtree.AggVO). The client replays the VO against the owner-signed
// root; the aggregate falls out of the replay, so a correct signature
// check *produces* the verified scalar rather than confirming a claimed
// one. The VO covers the canonical frontier (O(log n) tokens), not the
// result set, which is where the fast path's response-bytes win over
// scan-plus-VO comes from.

// Aggregate answers an aggregate query with a fresh request context; see
// AggregateCtx.
func (p *Provider) Aggregate(q record.Range) (*mbtree.VO, costmodel.Breakdown, error) {
	return p.AggregateCtx(exec.NewContext(), q)
}

// AggregateCtx builds the aggregate VO for q: ServeAggBurstCtx at n = 1,
// measured on ctx. The VO comes from the mbtree shell pool; the caller
// may hand it back with mbtree.PutVO once done with it, or just drop it.
func (p *Provider) AggregateCtx(ctx *exec.Context, q record.Range) (*mbtree.VO, costmodel.Breakdown, error) {
	before := ctx.Stats()
	start := time.Now()
	vos, err := p.ServeAggBurstCtx([]*exec.Context{ctx}, []record.Range{q}, nil)
	if err != nil {
		return nil, costmodel.Breakdown{}, err
	}
	return vos[0], costmodel.Default.Measure(ctx.Stats().Sub(before), time.Since(start)), nil
}

// ServeAggBurstCtx builds a burst of aggregate VOs from the MB-Tree's
// annotations under one read-lock acquisition: per query a
// canonical-cover descent touching O(log n) nodes and no heap pages,
// charged to its own context. The VOs come from the mbtree shell pool
// and are appended to vos (pass a [:0] scratch slice); the caller must
// PutVO each once encoded. An error hands every shell built by this call
// back to the pool and aborts the burst — the wire server then re-serves
// it as bursts of one.
func (p *Provider) ServeAggBurstCtx(ctxs []*exec.Context, qs []record.Range, vos []*mbtree.VO) ([]*mbtree.VO, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	built := len(vos)
	for i, q := range qs {
		shell := mbtree.GetVO()
		vo, err := p.tree.AggVOCtxInto(ctxs[i], q.Lo, q.Hi, p.sig, shell)
		if err != nil {
			mbtree.PutVO(shell)
			for _, v := range vos[built:] {
				mbtree.PutVO(v)
			}
			return vos[:built], fmt.Errorf("tom: provider aggregate VO build: %w", err)
		}
		vos = append(vos, vo)
	}
	return vos, nil
}

// VerifyAggregate replays an aggregate VO against the owner's signature
// and returns the verified scalar. The error is non-nil iff the VO fails
// to prove the aggregate for exactly q.
func (c Client) VerifyAggregate(q record.Range, vo *mbtree.VO) (agg.Agg, costmodel.Breakdown, error) {
	start := time.Now()
	a, err := mbtree.VerifyAggVO(vo, q.Lo, q.Hi, c.Verifier)
	return a, costmodel.Breakdown{CPU: time.Since(start)}, err
}

// AggOutcome captures one verified TOM aggregate round-trip.
type AggOutcome struct {
	Agg        agg.Agg
	VO         *mbtree.VO
	SPCost     costmodel.Breakdown
	ClientCost costmodel.Breakdown
	VerifyErr  error
}

// ResponseTime is provider execution plus client verification (no
// parallel party under TOM).
func (o *AggOutcome) ResponseTime() costmodel.Breakdown {
	return o.SPCost.Add(o.ClientCost)
}

// Aggregate runs the full TOM aggregation protocol for one range.
func (s *System) Aggregate(q record.Range) (*AggOutcome, error) {
	vo, spCost, err := s.Provider.Aggregate(q)
	if err != nil {
		return nil, err
	}
	a, clientCost, verifyErr := s.Client.VerifyAggregate(q, vo)
	return &AggOutcome{
		Agg:        a,
		VO:         vo,
		SPCost:     spCost,
		ClientCost: clientCost,
		VerifyErr:  verifyErr,
	}, nil
}

// ShardAggVO is one shard's contribution to a scattered TOM aggregate
// query: the clamped sub-range and the aggregate VO proving its partial.
type ShardAggVO struct {
	Shard  int
	Sub    record.Range
	VO     *mbtree.VO
	SPCost costmodel.Breakdown
}

// ShardedAggOutcome captures one scattered, verified TOM aggregate
// round-trip.
type ShardedAggOutcome struct {
	Agg        agg.Agg
	PerShard   []ShardAggVO
	ClientCost costmodel.Breakdown
	VerifyErr  error
}

// VOBytes returns the total serialized size of the per-shard aggregate
// VOs.
func (o *ShardedAggOutcome) VOBytes() int {
	n := 0
	for i := range o.PerShard {
		n += o.PerShard[i].VO.Size()
	}
	return n
}

// Aggregate scatters an aggregate query to the overlapping shards and
// verifies the stitched evidence: every shard's VO must replay to that
// shard's bound signed root for exactly the clamp the client computed
// from the plan, and the verified partials must seam-check back into q
// (shard.MergeAgg) before merging.
func (s *ShardedSystem) Aggregate(q record.Range) (*ShardedAggOutcome, error) {
	subs := s.Plan.Scatter(q)
	out := &ShardedAggOutcome{}
	if len(subs) == 0 {
		return out, nil
	}
	replies := make([]ShardAggVO, len(subs))
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			idx, sub := subs[i].Shard, subs[i].Sub
			vo, cost, err := s.Providers[idx].AggregateCtx(exec.NewContext(), sub)
			if err != nil {
				errs[i] = fmt.Errorf("tom: shard %d: %w", idx, err)
				return
			}
			replies[i] = ShardAggVO{Shard: idx, Sub: sub, VO: vo, SPCost: cost}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out.PerShard = replies
	out.ClientCost, out.Agg, out.VerifyErr = s.Client.VerifyAggregate(q, replies)
	return out, nil
}

// VerifyAggregate checks scattered TOM aggregate evidence for q and
// returns the merged scalar. Each shard's VO verifies under that shard's
// bound signature for the plan's clamp (never the relay's claim), then
// the partials seam-check and merge.
func (c ShardedClient) VerifyAggregate(q record.Range, perShard []ShardAggVO) (costmodel.Breakdown, agg.Agg, error) {
	start := time.Now()
	fail := func(err error) (costmodel.Breakdown, agg.Agg, error) {
		return costmodel.Breakdown{CPU: time.Since(start)}, agg.Agg{}, err
	}
	subs := c.Plan.Scatter(q)
	if len(subs) == 0 {
		if len(perShard) != 0 {
			return fail(fmt.Errorf("%w: evidence for an empty range", mbtree.ErrBadVO))
		}
		return costmodel.Breakdown{CPU: time.Since(start)}, agg.Agg{}, nil
	}
	if len(perShard) != len(subs) {
		return fail(fmt.Errorf("%w: %d shard answers for %d overlapping shards",
			mbtree.ErrBadVO, len(perShard), len(subs)))
	}
	parts := make([]shard.AggPart, len(subs))
	for i := range perShard {
		sv := &perShard[i]
		idx := subs[i].Shard
		if sv.Shard != idx {
			return fail(fmt.Errorf("%w: answer %d is from shard %d, want %d", mbtree.ErrBadVO, i, sv.Shard, idx))
		}
		if sv.Sub != subs[i].Sub {
			return fail(fmt.Errorf("%w: shard %d answered sub-range %v, want %v", mbtree.ErrBadVO, idx, sv.Sub, subs[i].Sub))
		}
		a, err := mbtree.VerifyAggVOBound(sv.VO, sv.Sub.Lo, sv.Sub.Hi, c.Verifier, ShardBinding(c.Plan, idx))
		if err != nil {
			return fail(fmt.Errorf("shard %d: %w", idx, err))
		}
		parts[i] = shard.AggPart{Sub: sv.Sub, Agg: a}
	}
	merged, err := shard.MergeAgg(q, parts)
	if err != nil {
		return fail(fmt.Errorf("%w: %v", mbtree.ErrBadVO, err))
	}
	return costmodel.Breakdown{CPU: time.Since(start)}, merged, nil
}
