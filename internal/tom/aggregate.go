package tom

import (
	"fmt"
	"time"

	"sae/internal/agg"
	"sae/internal/costmodel"
	"sae/internal/exec"
	"sae/internal/mbtree"
	"sae/internal/record"
)

// TOM's aggregation fast path. Under TOM the provider cannot just assert
// a scalar — there is no trusted party to token it — so the answer IS the
// evidence: an aggregate VO over the MB-Tree's annotated internal nodes
// (mbtree.AggVOCtx). The client replays the VO against the owner-signed
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

// AggregateCtx builds the aggregate VO for q from the MB-Tree's
// annotations under the read lock: a canonical-cover descent touching
// O(log n) nodes and no heap pages, measured on ctx.
func (p *Provider) AggregateCtx(ctx *exec.Context, q record.Range) (*mbtree.VO, costmodel.Breakdown, error) {
	before := ctx.Stats()
	start := time.Now()
	p.mu.RLock()
	vo, err := p.tree.AggVOCtx(ctx, q.Lo, q.Hi, p.sig)
	p.mu.RUnlock()
	if err != nil {
		return nil, costmodel.Breakdown{}, fmt.Errorf("tom: provider aggregate VO build: %w", err)
	}
	return vo, costmodel.Default.Measure(ctx.Stats().Sub(before), time.Since(start)), nil
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
