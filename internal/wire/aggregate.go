package wire

import (
	"context"
	"fmt"

	"sae/internal/agg"
	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/shard"
)

// The aggregation fast path on the wire. A verified aggregate is the
// TE's 44-byte range-bound token: the client checks its tag and takes its
// aggregate, so the answer is constant-size instead of the result set —
// the protocol's response-bytes win over scan-and-fold, which ships every
// covered record. Only the TE is asked (MsgAggTokenReq), whether it is a
// process of its own or sits behind one address with the SP (a primary,
// a replica, a router). The SP's unverified scalar (MsgAggQuery) stays
// for tools.

// AggregateMany fetches the COUNT/SUM/MIN/MAX scalars for a group of
// ranges (a burst-mode server serves the group through one lane pass).
// Scalars align with qs and are unverified: a verified aggregate is the
// TE's token (VerifyingClient.AggregateBurst).
func (c *SPClient) AggregateMany(ctx context.Context, qs []record.Range) ([]agg.Agg, error) {
	raws, err := c.askMany(ctx, rangeFrames(MsgAggQuery, qs), MsgAggResult)
	return decodeAll(raws, err, decodeAggResult)
}

// AggregateWithCtx is AggregateMany of one.
func (c *SPClient) AggregateWithCtx(ctx context.Context, q record.Range) (agg.Agg, error) {
	as, err := c.AggregateMany(ctx, []record.Range{q})
	if err != nil {
		return agg.Agg{}, err
	}
	return as[0], nil
}

func decodeAggResult(p []byte) (agg.Agg, error) {
	if len(p) != agg.Size {
		return agg.Agg{}, fmt.Errorf("%w: malformed aggregate response", ErrProtocol)
	}
	return agg.FromBytes(p), nil
}

// AggTokenMany fetches the aggregate verification tokens for a group of
// ranges; tokens align with qs.
func (c *TEClient) AggTokenMany(ctx context.Context, qs []record.Range) ([]agg.Token, error) {
	raws, err := c.askMany(ctx, rangeFrames(MsgAggTokenReq, qs), MsgAggToken)
	return decodeAll(raws, err, decodeAggToken)
}

// AggTokenWithCtx is AggTokenMany of one.
func (c *TEClient) AggTokenWithCtx(ctx context.Context, q record.Range) (agg.Token, error) {
	toks, err := c.AggTokenMany(ctx, []record.Range{q})
	if err != nil {
		return agg.Token{}, err
	}
	return toks[0], nil
}

func decodeAggToken(p []byte) (agg.Token, error) {
	if len(p) != agg.TokenSize {
		return agg.Token{}, fmt.Errorf("%w: aggregate token of %d bytes, want %d", ErrProtocol, len(p), agg.TokenSize)
	}
	return agg.TokenFromBytes(p), nil
}

// Aggregate runs the verified aggregation fast path over the network:
// AggregateBurst of one.
func (v *VerifyingClient) Aggregate(q record.Range) (agg.Agg, error) {
	as, err := v.AggregateBurst([]record.Range{q})
	if err != nil {
		return agg.Agg{}, err
	}
	return as[0], nil
}

// AggregateBurst runs a group of verified aggregate queries as one burst
// on the TE connection, one MsgAggTokenReq frame per query, the group
// reaching the TE in a single write (served as one grouped lane pass).
// Each answer is a range-bound token; its aggregate is returned only if
// its tag binds the query's range. Requests and responses are
// constant-size, so a query costs O(log n) at the TE and O(1) bytes and
// client work regardless of how many records the range covers. Results
// align with qs; the first verification failure rejects the burst.
func (v *VerifyingClient) AggregateBurst(qs []record.Range) ([]agg.Agg, error) {
	toks, err := v.TE.AggTokenMany(context.Background(), qs)
	if err != nil {
		return nil, err
	}
	as := make([]agg.Agg, len(qs))
	for i, q := range qs {
		if as[i], err = toks[i].Check(q); err != nil {
			return nil, fmt.Errorf("%w: query %d %v: %v", core.ErrVerificationFailed, i, q, err)
		}
	}
	return as, nil
}

// Aggregate scatters a verified aggregate query across the shards: every
// overlapping shard answers the clamp the client computed itself from the
// TE-attested plan (AggregateBurst of one on the shard's own client: one
// token, its tag checked against that shard's clamp), and the partials
// must seam-check back into q (shard.MergeAgg) before merging — so a
// suppressed, duplicated or re-clamped partial fails loudly, exactly as
// in the in-process sharded system.
func (c *ShardedVerifyingClient) Aggregate(q record.Range) (agg.Agg, error) {
	subs := c.Plan.Scatter(q)
	if len(subs) == 0 {
		return agg.Agg{}, nil
	}
	parts := make([]shard.AggPart, len(subs))
	err := c.scatter(subs, func(i int, vc *VerifyingClient) error {
		as, err := vc.AggregateBurst([]record.Range{subs[i].Sub})
		if err != nil {
			return err
		}
		parts[i] = shard.AggPart{Sub: subs[i].Sub, Agg: as[0]}
		return nil
	})
	if err != nil {
		return agg.Agg{}, err
	}
	merged, err := shard.MergeAgg(q, parts)
	if err != nil {
		return agg.Agg{}, fmt.Errorf("%w: %v", core.ErrVerificationFailed, err)
	}
	return merged, nil
}
