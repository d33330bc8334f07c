package wire

import (
	"context"
	"fmt"

	"sae/internal/agg"
	"sae/internal/core"
	"sae/internal/mbtree"
	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/tom"
)

// The aggregation fast path on the wire. The frames mirror the range
// protocol's shape — the client sends the query to both parties
// simultaneously — but the responses are constant-size: a 24-byte scalar
// from the SP, a 44-byte range-bound token from the TE, and under TOM an
// O(log n) aggregate VO instead of the result set. That constant response
// is the protocol's response-bytes win over scan-and-fold, which ships
// every covered record.

// AggregateMany fetches the COUNT/SUM/MIN/MAX scalars for a group of
// ranges (a burst-mode server serves the group through one lane pass).
// Scalars align with qs and are untrusted until checked against TE
// aggregate tokens.
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
		return agg.Token{}, fmt.Errorf("%w: malformed aggregate token response", ErrProtocol)
	}
	return agg.TokenFromBytes(p), nil
}

// Aggregate runs the verified aggregation fast path over the network:
// AggregateBurst of one. The scalar is returned only if it matches the
// TE's range-bound token bit for bit.
func (v *VerifyingClient) Aggregate(q record.Range) (agg.Agg, error) {
	as, err := v.AggregateBurst([]record.Range{q})
	if err != nil {
		return agg.Agg{}, err
	}
	return as[0], nil
}

// AggregateBurst runs a group of verified aggregate queries as one burst:
// the SP folds its B+-tree annotations while the TE issues the
// range-bound tokens, in parallel, each party receiving the whole group
// in a single write (served as one grouped lane pass), and every scalar
// is checked against its own token. Requests and responses are
// constant-size, so a query costs O(log n) at the parties and O(1) bytes
// and client work regardless of how many records the range covers.
// Results align with qs; the first verification failure rejects the
// burst.
func (v *VerifyingClient) AggregateBurst(qs []record.Range) ([]agg.Agg, error) {
	as, toks, err := fetch(v, qs, (*SPClient).AggregateMany, (*TEClient).AggTokenMany)
	if err != nil {
		return nil, err
	}
	for i, q := range qs {
		if err := toks[i].Verify(q, as[i]); err != nil {
			return nil, fmt.Errorf("%w: query %d %v: %v", core.ErrVerificationFailed, i, q, err)
		}
	}
	return as, nil
}

// Aggregate runs the verified TOM aggregation fast path. Under TOM the
// aggregate VO IS the answer: replaying it against the owner's signature
// produces the verified scalar, so there is no separate claimed value to
// compare. Both answer forms are accepted — a single provider's VO and a
// router's stitched per-shard evidence (MsgTOMAggShardedResult), the
// latter verified with the same stitched logic as the in-process sharded
// system: the relayed plan is untrusted, but every shard's VO signature
// binds the owner-signed plan.
func (v *VerifyingTOMClient) Aggregate(q record.Range) (agg.Agg, error) {
	resp, err := v.RoundTripCtx(context.Background(), Frame{Type: MsgTOMAggQuery, Payload: EncodeRange(q)})
	if err != nil {
		return agg.Agg{}, err
	}
	defer Release(resp.Payload) // VOs are decoded copies
	switch resp.Type {
	case MsgTOMAggResult:
		vo, err := mbtree.UnmarshalVO(resp.Payload)
		if err != nil {
			return agg.Agg{}, err
		}
		return mbtree.VerifyAggVO(vo, q.Lo, q.Hi, v.Verifier)
	case MsgTOMAggShardedResult:
		return v.verifyShardedAgg(q, resp.Payload)
	default:
		return agg.Agg{}, fmt.Errorf("%w: unexpected response type %d", ErrProtocol, resp.Type)
	}
}

// verifyShardedAgg checks a router's stitched TOM aggregate evidence:
// decode the plan and per-shard aggregate VOs, rebuild the tom.ShardAggVO
// list and run the sharded verification (every VO replays to its shard's
// bound signed root for the plan's own clamp, then the partials
// seam-check and merge). A nil error proves the scalar for all of q with
// no trust in the router.
func (v *VerifyingTOMClient) verifyShardedAgg(q record.Range, payload []byte) (agg.Agg, error) {
	plan, parts, err := DecodeTOMSharded(payload)
	if err != nil {
		return agg.Agg{}, err
	}
	perShard := make([]tom.ShardAggVO, len(parts))
	for i, p := range parts {
		vo, err := mbtree.UnmarshalVO(p.Blob)
		if err != nil {
			return agg.Agg{}, fmt.Errorf("%w: shard %d aggregate evidence: %v", ErrProtocol, p.Shard, err)
		}
		perShard[i] = tom.ShardAggVO{Shard: p.Shard, Sub: p.Sub, VO: vo}
	}
	sc := tom.ShardedClient{Verifier: v.Verifier, Plan: plan}
	_, a, err := sc.VerifyAggregate(q, perShard)
	return a, err
}

// Aggregate scatters a verified aggregate query across the shards: every
// overlapping shard answers the clamp the client computed itself from the
// TE-attested plan (AggregateBurst of one on the shard's own client:
// scalar and token in parallel, the scalar verified against that shard's
// range-bound token), and the partials must seam-check back into q
// (shard.MergeAgg) before merging — so a suppressed, duplicated or
// re-clamped partial fails loudly, exactly as in the in-process sharded
// system.
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
