package wire

import (
	"context"
	"fmt"
	"sync"

	"sae/internal/digest"
	"sae/internal/record"
	"sae/internal/shard"
)

// ShardedVerifyingClient performs the SAE protocol against a horizontally
// sharded deployment: it holds pipelined connections to every shard's SP
// and TE, scatters each range query to the overlapping shards, verifies
// every shard's sub-result against that shard's token and gathers them in
// key order. (For deployments that want the scatter on the server side
// instead, see internal/router: a plain VerifyingClient pointed at a
// router obtains bit-identical results.)
//
// The partition plan is fetched from the trusted entities themselves at
// dial time, not from any router: every TE must report the same plan and
// its own position in it. Since the TEs are the protocol's trusted
// parties, a malicious router or SP cannot shrink a shard's span to
// suppress records at a partition seam — the client computes every
// sub-range itself from the TE-attested plan, and the sub-ranges tile q.
type ShardedVerifyingClient struct {
	Plan   shard.Plan
	Shards []*VerifyingClient
}

// DialShardedVerifying connects to every shard's SP/TE pair (spAddrs[i]
// and teAddrs[i] form shard i) and cross-checks the deployment's shard
// maps with VerifyShardAttestations.
func DialShardedVerifying(spAddrs, teAddrs []string) (*ShardedVerifyingClient, error) {
	if len(spAddrs) == 0 || len(spAddrs) != len(teAddrs) {
		return nil, fmt.Errorf("wire: %d SP addresses for %d TE addresses", len(spAddrs), len(teAddrs))
	}
	c := &ShardedVerifyingClient{Shards: make([]*VerifyingClient, len(spAddrs))}
	for i := range spAddrs {
		vc, err := DialVerifying(spAddrs[i], teAddrs[i])
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("wire: dialing shard %d: %w", i, err)
		}
		c.Shards[i] = vc
	}
	sps := make([]*Conn, len(c.Shards))
	tes := make([]*Conn, len(c.Shards))
	for i, vc := range c.Shards {
		sps[i], tes[i] = vc.SP.Conn, vc.TE.Conn
	}
	plan, err := VerifyShardAttestations(context.Background(), sps, tes)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Plan = plan
	return c, nil
}

// VerifyShardAttestations cross-checks a dialed deployment's shard maps:
// each TE must attest the same plan, claim the index it is dialed as, and
// the plan's shard count must match the address lists. The SPs' maps are
// checked too — an SP mismatch is a deployment wiring error even though
// SPs are untrusted. It returns the TE-attested plan. Shared by the
// shard-aware client and the router tier, which performs the same
// cross-check against its upstreams at startup, bounded by ctx: an
// upstream that accepts but never answers must not hang the caller.
func VerifyShardAttestations(ctx context.Context, sps, tes []*Conn) (shard.Plan, error) {
	var plan shard.Plan
	for i, te := range tes {
		si, err := te.ShardMapCtx(ctx)
		if err != nil {
			return shard.Plan{}, fmt.Errorf("wire: shard %d TE map: %w", i, err)
		}
		if si.Index != i {
			return shard.Plan{}, fmt.Errorf("wire: TE dialed as shard %d claims index %d", i, si.Index)
		}
		if si.Plan.Shards() != len(tes) {
			return shard.Plan{}, fmt.Errorf("wire: TE %d attests a %d-shard plan, dialed %d shards",
				i, si.Plan.Shards(), len(tes))
		}
		if i == 0 {
			plan = si.Plan
		} else if !si.Plan.Equal(plan) {
			return shard.Plan{}, fmt.Errorf("wire: TE %d attests a different plan than TE 0", i)
		}
		// Routing sanity only: the SP map is untrusted but a mismatch
		// means the deployment is mis-wired.
		if spsi, err := sps[i].ShardMapCtx(ctx); err != nil {
			return shard.Plan{}, fmt.Errorf("wire: shard %d SP map: %w", i, err)
		} else if spsi.Index != i || !spsi.Plan.Equal(plan) {
			return shard.Plan{}, fmt.Errorf("wire: SP dialed as shard %d reports shard %d of %v",
				i, spsi.Index, spsi.Plan)
		}
	}
	return plan, nil
}

// Close closes every shard connection.
func (c *ShardedVerifyingClient) Close() error {
	var first error
	for _, vc := range c.Shards {
		if vc == nil {
			continue
		}
		if err := vc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// BytesReceived sums the bytes received from all shards, split into the
// SP (result) and TE (authentication) streams.
func (c *ShardedVerifyingClient) BytesReceived() (sp, te int64) {
	for _, vc := range c.Shards {
		sp += vc.SP.BytesReceived()
		te += vc.TE.BytesReceived()
	}
	return sp, te
}

// scatter runs f for every overlapping shard at once, f(i, vc) serving
// subs[i] through that shard's own client, and returns the first error.
func (c *ShardedVerifyingClient) scatter(subs []shard.SubQuery, f func(i int, vc *VerifyingClient) error) error {
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := f(i, c.Shards[subs[i].Shard]); err != nil {
				errs[i] = fmt.Errorf("wire: shard %d: %w", subs[i].Shard, err)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Query scatters a verified range query: every overlapping shard's raw
// answer and token come from one fetch on that shard's client, for the
// sub-range the client clamped itself; then every shard's section is
// checked against its own shard's token in one verifyRecords call — query
// i being the i-th overlapping shard — and the records are returned,
// merged in key order, only if every shard passed.
func (c *ShardedVerifyingClient) Query(q record.Range) ([]record.Record, error) {
	subs := c.Plan.Scatter(q)
	if len(subs) == 0 {
		return nil, nil
	}
	qs := make([]record.Range, len(subs))
	raws := make([][]byte, len(subs))
	vts := make([]digest.Digest, len(subs))
	for i := range subs {
		qs[i] = subs[i].Sub
	}
	err := c.scatter(subs, func(i int, vc *VerifyingClient) error {
		raw, vt, err := fetch(vc, qs[i:i+1], (*SPClient).QueryRawMany, (*TEClient).GenerateVTMany)
		if raw != nil {
			raws[i] = raw[0]
		}
		if err != nil {
			return err
		}
		vts[i] = vt[0]
		return nil
	})
	defer releaseAll(raws)
	if err != nil {
		return nil, err
	}
	parts, err := verifyRecords(qs, raws, vts)
	if err != nil {
		return nil, err
	}
	var merged []record.Record
	for _, recs := range parts {
		merged = append(merged, recs...)
	}
	return merged, nil
}
