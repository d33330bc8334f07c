package wire

import (
	"context"
	"fmt"

	"sae/internal/agg"
	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/shard"
)

// The aggregation fast path on the wire. The frames mirror the range
// protocol's shape — the client sends the query to both parties
// simultaneously — but the responses are constant-size: a 24-byte scalar
// from the SP and a 44-byte range-bound token from the TE instead of the
// result set. That constant response is the protocol's response-bytes win
// over scan-and-fold, which ships every covered record. When both parties
// sit behind one address (a primary, a replica, a router) the two legs
// are one MsgVerifiedAgg frame, and its 68-byte answer — scalar, then
// token — is read at one commit boundary.

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

// verifiedAggMany fetches scalar and token for a group of ranges from a
// party that holds both (a primary, a replica, a router), one
// MsgVerifiedAgg frame per range, each answered at one commit boundary.
// Both align with qs; the scalars are untrusted until checked.
func (c *Conn) verifiedAggMany(ctx context.Context, qs []record.Range) ([]agg.Agg, []agg.Token, error) {
	raws, err := c.askMany(ctx, rangeFrames(MsgVerifiedAgg, qs), MsgVerifiedAggResult)
	if err != nil {
		return nil, nil, err
	}
	defer releaseAll(raws)
	as, toks := make([]agg.Agg, len(raws)), make([]agg.Token, len(raws))
	for i, p := range raws {
		if as[i], toks[i], err = decodeVerifiedAgg(p); err != nil {
			return nil, nil, err
		}
	}
	return as, toks, nil
}

// decodeVerifiedAgg parses a MsgVerifiedAggResult payload: the scalar,
// then the token that checks it.
func decodeVerifiedAgg(p []byte) (agg.Agg, agg.Token, error) {
	if len(p) != agg.Size+agg.TokenSize {
		return agg.Agg{}, agg.Token{}, fmt.Errorf("%w: verified aggregate of %d bytes, want %d",
			ErrProtocol, len(p), agg.Size+agg.TokenSize)
	}
	return agg.FromBytes(p[:agg.Size]), agg.TokenFromBytes(p[agg.Size:]), nil
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
// the SP folds its B+-tree annotations and the TE issues the range-bound
// tokens, the group reaching each in a single write (served as one
// grouped lane pass), and every scalar is checked against its own token.
// When both legs reach one address the group goes there once, as
// MsgVerifiedAgg frames whose scalar and token share a commit boundary;
// split parties get the two legs in parallel. Requests and responses are
// constant-size, so a query costs O(log n) at the parties and O(1) bytes
// and client work regardless of how many records the range covers.
// Results align with qs; the first verification failure rejects the
// burst.
func (v *VerifyingClient) AggregateBurst(qs []record.Range) ([]agg.Agg, error) {
	var as []agg.Agg
	var toks []agg.Token
	var err error
	if v.SP.c.RemoteAddr().String() == v.TE.c.RemoteAddr().String() {
		as, toks, err = v.SP.verifiedAggMany(context.Background(), qs)
	} else {
		as, toks, err = fetch(v, qs, (*SPClient).AggregateMany, (*TEClient).AggTokenMany)
	}
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

// Aggregate scatters a verified aggregate query across the shards: every
// overlapping shard answers the clamp the client computed itself from the
// TE-attested plan (AggregateBurst of one on the shard's own client: one
// frame to a primary, scalar and token in parallel to split parties, the
// scalar verified against that shard's range-bound token), and the
// partials must seam-check back into q (shard.MergeAgg) before merging —
// so a suppressed, duplicated or re-clamped partial fails loudly, exactly
// as in the in-process sharded system.
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
