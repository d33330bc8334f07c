package core

import (
	"fmt"
	"sync"
	"time"

	"sae/internal/agg"
	"sae/internal/costmodel"
	"sae/internal/exec"
	"sae/internal/record"
	"sae/internal/shard"
)

// This file is the SAE side of the authenticated-aggregation fast path.
// The division of labor mirrors the range protocol exactly:
//
//   - the SP answers COUNT/SUM/MIN/MAX over a key range from its plain
//     B+-tree's internal-node annotations in O(log n) node accesses — no
//     heap access, no authentication work;
//   - the TE computes the same aggregate from its own annotated XB-Tree
//     and wraps it in an agg.Token whose tag binds the scalar to the
//     exact query range;
//   - the client compares the SP's scalar against the token. The trust
//     argument is the range protocol's: the token travels the
//     authenticated client↔TE path, so a malicious SP (or router in
//     between) cannot forge a scalar without the comparison failing.

// AggTamper mutates an aggregate answer before it leaves a malicious SP.
type AggTamper func(agg.Agg) agg.Agg

// InflateAggTamper adds delta phantom rows to the count (and their keys'
// worth of sum) — the aggregate analogue of InjectTamper.
func InflateAggTamper(delta uint64, key record.Key) AggTamper {
	return func(a agg.Agg) agg.Agg {
		return a.Merge(agg.OfKey(key, delta))
	}
}

// SetAggTamper installs (or clears, with nil) aggregate-answer tampering.
func (sp *ServiceProvider) SetAggTamper(t AggTamper) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.aggTamper = t
}

// AggregateCtx answers COUNT/SUM/MIN/MAX over q from the B+-tree's
// aggregate annotations: AggregateBurst at n = 1, measured on ctx. Compare
// QueryCtx, whose cost grows linearly with the result cardinality — this
// is the fast path the aggregation benchmark prices against
// scan-and-fold.
func (sp *ServiceProvider) AggregateCtx(ctx *exec.Context, q record.Range) (agg.Agg, costmodel.Breakdown, error) {
	var a [1]agg.Agg
	cost, err := measured(ctx, func() error {
		return sp.AggregateBurst([]*exec.Context{ctx}, []record.Range{q}, a[:])
	})
	return a[0], cost, err
}

// AggregateBurst answers a burst of aggregate queries under ONE read-lock
// acquisition, each a canonical-cover descent touching O(log n) nodes and
// zero heap pages, charged to its query's own context. out[i] receives
// query i's scalar and must be at least len(qs) long. A tampering SP
// forges each answer, so attack experiments behave identically on every
// entry point.
func (sp *ServiceProvider) AggregateBurst(ctxs []*exec.Context, qs []record.Range, out []agg.Agg) error {
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	for i, q := range qs {
		a, err := sp.index.AggregateCtx(ctxs[i], q.Lo, q.Hi)
		if err != nil {
			return fmt.Errorf("core: SP aggregate: %w", err)
		}
		if sp.aggTamper != nil {
			a = sp.aggTamper(a)
		}
		out[i] = a.Normalize()
	}
	return nil
}

// AggTokenCtx computes the TE's aggregate token for q: AggTokenBurst at
// n = 1, measured on ctx. The client checks the SP's scalar against this
// token just as it checks a range result against the VT.
func (te *TrustedEntity) AggTokenCtx(ctx *exec.Context, q record.Range) (agg.Token, costmodel.Breakdown, error) {
	var tok [1]agg.Token
	cost, err := measured(ctx, func() error {
		return te.AggTokenBurst([]*exec.Context{ctx}, []record.Range{q}, tok[:])
	})
	return tok[0], cost, err
}

// AggTokenBurst computes the aggregate tokens for a burst of ranges under
// ONE read-lock acquisition; out must be at least len(qs) long. Each is
// the XB-Tree's own canonical-cover aggregate (O(log n) node accesses, no
// tuple-list pages) wrapped with the tag binding it to the exact range.
func (te *TrustedEntity) AggTokenBurst(ctxs []*exec.Context, qs []record.Range, out []agg.Token) error {
	te.mu.RLock()
	defer te.mu.RUnlock()
	for i, q := range qs {
		a, err := te.tree.AggregateCtx(ctxs[i], q.Lo, q.Hi)
		if err != nil {
			return fmt.Errorf("core: TE aggregate token: %w", err)
		}
		out[i] = agg.TokenFor(q, a)
	}
	return nil
}

// VerifyAggregate checks the SP's scalar answer against the TE's token:
// the tag must bind the exact query range and the two aggregates must
// match bit for bit. Pure client CPU, constant work — independent of how
// many records the range contains.
func (Client) VerifyAggregate(q record.Range, got agg.Agg, tok agg.Token) (costmodel.Breakdown, error) {
	start := time.Now()
	err := tok.Verify(q, got)
	cost := costmodel.Breakdown{CPU: time.Since(start)}
	if err != nil {
		return cost, fmt.Errorf("%w: %v", ErrVerificationFailed, err)
	}
	return cost, nil
}

// ShardAggCost is one shard's contribution to a scattered aggregate query.
type ShardAggCost struct {
	Shard  int
	Sub    record.Range // the query clamped to this shard's span
	SPCost costmodel.Breakdown
	TECost costmodel.Breakdown
}

// ShardedAggOutcome captures one scattered, verified aggregate round-trip.
type ShardedAggOutcome struct {
	Agg        agg.Agg
	PerShard   []ShardAggCost
	ClientCost costmodel.Breakdown
	// VerifyErr is nil iff every per-shard scalar verified against its
	// shard's token AND the sub-ranges seam-checked back into q.
	VerifyErr error
}

// Aggregate scatters an aggregate query to the overlapping shards, checks
// each shard's scalar against that shard's TE token, seam-checks the
// clamped sub-ranges against the plan, and merges the partials: counts
// and sums add, min of mins, max of maxes. Each per-shard token binds its
// clamp — which the client computes itself from the plan, never trusting
// a relay's claim of what range a partial covers — so a suppressed,
// duplicated or mis-clamped partial fails the merge loudly.
func (s *ShardedSystem) Aggregate(q record.Range) (*ShardedAggOutcome, error) {
	subs := s.Plan.Scatter(q)
	out := &ShardedAggOutcome{}
	if len(subs) == 0 {
		// Empty range: the empty aggregate needs no shard work.
		return out, nil
	}
	type shardReply struct {
		a     agg.Agg
		tok   agg.Token
		cost  ShardAggCost
		spErr error
		teErr error
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
			var inner sync.WaitGroup
			inner.Add(1)
			go func() {
				defer inner.Done()
				r.tok, r.cost.TECost, r.teErr = s.TEs[idx].AggTokenCtx(exec.NewContext(), sub)
			}()
			r.a, r.cost.SPCost, r.spErr = s.SPs[idx].AggregateCtx(exec.NewContext(), sub)
			inner.Wait()
		}(i)
	}
	wg.Wait()

	out.PerShard = make([]ShardAggCost, 0, len(subs))
	parts := make([]shard.AggPart, len(subs))
	start := time.Now()
	for i := range replies {
		r := &replies[i]
		if r.spErr != nil {
			return nil, r.spErr
		}
		if r.teErr != nil {
			return nil, r.teErr
		}
		out.PerShard = append(out.PerShard, r.cost)
		// Verify this shard's scalar against its own token before merging:
		// the token's tag binds the clamp the client computed itself.
		if err := r.tok.Verify(r.cost.Sub, r.a); err != nil {
			out.ClientCost = costmodel.Breakdown{CPU: time.Since(start)}
			out.VerifyErr = fmt.Errorf("%w: shard %d: %v", ErrVerificationFailed, r.cost.Shard, err)
			return out, nil
		}
		parts[i] = shard.AggPart{Sub: r.cost.Sub, Agg: r.a}
	}
	merged, err := shard.MergeAgg(q, parts)
	out.ClientCost = costmodel.Breakdown{CPU: time.Since(start)}
	if err != nil {
		out.VerifyErr = fmt.Errorf("%w: %v", ErrVerificationFailed, err)
		return out, nil
	}
	out.Agg = merged
	return out, nil
}
