package router

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"sae/internal/agg"
	"sae/internal/digest"
	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/wire"
)

// handle maps one client request to one response frame. Every branch
// either returns the complete merged answer or an error frame — a
// failed or timed-out shard can never surface as a truncated result.
// The topology is snapshotted ONCE per attempt: a reshard cutover
// landing mid-request never mixes two topologies inside one answer.
func (r *Router) handle(req wire.Frame, rb *wire.RespBuf) wire.Frame {
	if req.Type == wire.MsgReshardCutover {
		cut, err := wire.DecodeCutover(req.Payload)
		if err == nil {
			err = r.Cutover(cut)
		}
		if err != nil {
			return wire.ErrFrame(err)
		}
		return wire.Frame{Type: wire.MsgAck}
	}
	t := r.topo.Load()
	resp := r.handleOn(t, req, rb)
	// The coordinator retires the source shards the moment this router
	// acks a cutover, so a request that snapshotted the displaced topology
	// just before the swap can find its shard already fenced. The
	// successor topology holds the same data: re-run there once instead of
	// surfacing the fence across a reshard. Every other error stands.
	if next := r.topo.Load(); next != t && resp.Type == wire.MsgErr &&
		bytes.Contains(resp.Payload, []byte(wire.ShardRetired)) {
		rb.Reset()
		resp = r.handleOn(next, req, rb)
	}
	return resp
}

// handleOn answers one query frame against one topology.
func (r *Router) handleOn(t *topology, req wire.Frame, rb *wire.RespBuf) wire.Frame {
	switch req.Type {
	case wire.MsgQuery:
		return r.handleQuery(t, req, rb)
	case wire.MsgBatchQuery:
		return r.handleBatchQuery(t, req, rb)
	case wire.MsgVTRequest:
		return r.handleVT(t, req, rb)
	case wire.MsgBatchVT:
		return r.handleBatchVT(t, req, rb)
	case wire.MsgTOMQuery:
		return r.handleTOM(t, req, rb)
	case wire.MsgAggQuery:
		return r.handleAggQuery(t, req, rb)
	case wire.MsgAggTokenReq:
		return r.handleAggToken(t, req, rb)
	case wire.MsgTOMAggQuery:
		return r.handleTOMAgg(t, req, rb)
	case wire.MsgVerifiedQuery:
		return r.handleVerifiedQuery(t, req, rb)
	case wire.MsgGenStampReq:
		return r.handleGenStamp(t, rb)
	case wire.MsgShardMapReq:
		// Relay the TE-attested partition plan for observability and
		// tooling. The index slot is meaningless for a router; by
		// convention it reports 0. Clients never need this answer — the
		// whole point of the tier is that they treat the router as a
		// stand-alone system — and must not trust it: verification never
		// depends on it.
		return wire.Frame{Type: wire.MsgShardMap, Payload: wire.EncodeShardInfo(wire.ShardInfo{Index: 0, Plan: t.plan})}
	default:
		// The router serves queries; owners update the shards directly.
		return wire.ErrFrame(wire.CannotHandle("router", req.Type))
	}
}

// scatterSubs computes the SP-side sub-queries for q. The adversarial
// test hooks interpose here (forged plans, narrowed seams) — the token
// side never goes through them, mirroring an attacker who can bend the
// untrusted result path but not the TE aggregation.
func (r *Router) scatterSubs(t *topology, q record.Range) []shard.SubQuery {
	if tm := r.tamper.Load(); tm != nil && tm.scatterPlan != nil {
		return tm.scatterPlan.Scatter(q)
	}
	subs := t.plan.Scatter(q)
	if tm := r.tamper.Load(); tm != nil && tm.reshapeSubs != nil {
		subs = tm.reshapeSubs(subs)
	}
	return subs
}

// gatherRecords fans a range out to the overlapping shards' SP endpoint
// sets (primary plus replicas, with failover and hedging) and appends
// the merged EncodeRecords payload (count + packed records) to rb,
// without decoding a single record: each shard's sub-result is validated
// for framing and spliced into the response in shard order. It returns
// the merged record count.
func (r *Router) gatherRecords(t *topology, q record.Range, rb *wire.RespBuf) (int, error) {
	subs := r.scatterSubs(t, q)
	raws := make([][]byte, len(subs))
	errs := make([]error, len(subs))
	ctx, cancel := r.reqCtx()
	defer cancel()
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := t.sps[subs[i].Shard].do(ctx, func(ctx context.Context, c *wire.SPClient, _ *endpoint[*wire.SPClient]) (any, error) {
				return c.QueryRawCtx(ctx, subs[i].Sub)
			})
			if err != nil {
				errs[i] = fmt.Errorf("router: shard %d SP: %w", subs[i].Shard, err)
				return
			}
			raws[i] = v.([]byte)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	encs := make([][]byte, len(subs))
	for i, raw := range raws {
		enc, rest, _, err := wire.RecordsView(raw)
		if err != nil {
			return 0, fmt.Errorf("router: shard %d result: %w", subs[i].Shard, err)
		}
		if len(rest) != 0 {
			return 0, fmt.Errorf("%w: shard %d result carries %d trailing bytes", wire.ErrProtocol, subs[i].Shard, len(rest))
		}
		encs[i] = enc
	}
	if tm := r.tamper.Load(); tm != nil && tm.reshapeParts != nil {
		encs = tm.reshapeParts(encs)
	}
	// Contiguous partitions: splicing the shard payloads in shard order
	// is the key-order merge, byte-for-byte what a single SP serving the
	// whole dataset would have encoded.
	at := rb.Len()
	rb.AppendUint32(0)
	total := 0
	for _, enc := range encs {
		total += len(enc) / record.Size
		rb.Append(enc)
	}
	rb.PatchUint32(at, uint32(total))
	return total, nil
}

func (r *Router) handleQuery(t *topology, req wire.Frame, rb *wire.RespBuf) wire.Frame {
	q, err := wire.DecodeRange(req.Payload)
	if err != nil {
		return wire.ErrFrame(err)
	}
	if _, err := r.gatherRecords(t, q, rb); err != nil {
		return wire.ErrFrame(err)
	}
	return wire.Frame{Type: wire.MsgResult, Payload: rb.Bytes()}
}

func (r *Router) handleBatchQuery(t *topology, req wire.Frame, rb *wire.RespBuf) wire.Frame {
	qs, err := wire.DecodeRanges(req.Payload)
	if err != nil {
		return wire.ErrFrame(err)
	}
	// Group every query's sub-ranges by shard so each shard SP sees at
	// most one batch frame, exactly like the shard-aware client.
	subs := make([][]record.Range, len(t.sps))
	owners := make([][]int, len(t.sps))
	for qi, q := range qs {
		for _, sq := range r.scatterSubs(t, q) {
			subs[sq.Shard] = append(subs[sq.Shard], sq.Sub)
			owners[sq.Shard] = append(owners[sq.Shard], qi)
		}
	}
	ctx, cancel := r.reqCtx()
	defer cancel()
	raws := make([][]byte, len(t.sps))
	errs := make([]error, len(t.sps))
	var wg sync.WaitGroup
	for idx := range t.sps {
		if len(subs[idx]) == 0 {
			continue
		}
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			v, err := t.sps[idx].do(ctx, func(ctx context.Context, c *wire.SPClient, _ *endpoint[*wire.SPClient]) (any, error) {
				return c.QueryBatchRawCtx(ctx, subs[idx])
			})
			if err != nil {
				errs[idx] = fmt.Errorf("router: shard %d SP batch: %w", idx, err)
				return
			}
			raws[idx] = v.([]byte)
		}(idx)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return wire.ErrFrame(err)
		}
	}
	// Split each shard's batch payload into per-entry record views and
	// hand every query its parts in shard order.
	parts := make([][][]byte, len(qs))
	for idx := range t.sps {
		if len(subs[idx]) == 0 {
			continue
		}
		entries, err := splitBatchPayload(raws[idx], len(subs[idx]))
		if err != nil {
			return wire.ErrFrame(fmt.Errorf("router: shard %d batch result: %w", idx, err))
		}
		for j, qi := range owners[idx] {
			parts[qi] = append(parts[qi], entries[j])
		}
	}
	rb.AppendUint32(uint32(len(qs)))
	for qi := range qs {
		at := rb.Len()
		rb.AppendUint32(0)
		total := 0
		for _, enc := range parts[qi] {
			total += len(enc) / record.Size
			rb.Append(enc)
		}
		rb.PatchUint32(at, uint32(total))
	}
	return wire.Frame{Type: wire.MsgBatchResult, Payload: rb.Bytes()}
}

// splitBatchPayload validates an EncodeRecordBatches payload of exactly
// n entries and returns each entry's raw record bytes (count stripped).
func splitBatchPayload(raw []byte, n int) ([][]byte, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("%w: truncated batch count", wire.ErrProtocol)
	}
	if got := int(binary.BigEndian.Uint32(raw[0:4])); got != n {
		return nil, fmt.Errorf("%w: %d batch entries, want %d", wire.ErrProtocol, got, n)
	}
	b := raw[4:]
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		enc, rest, _, err := wire.RecordsView(b)
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		out = append(out, enc)
		b = rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", wire.ErrProtocol, len(b))
	}
	return out, nil
}

// gatherVT XOR-combines the overlapping shard TEs' tokens for q. The
// scatter uses the attested plan directly (never the tamper hooks): the
// token path models the authenticated client↔TE aggregate.
func (r *Router) gatherVT(t *topology, q record.Range) (digest.Digest, error) {
	subs := t.plan.Scatter(q)
	vts := make([]digest.Digest, len(subs))
	errs := make([]error, len(subs))
	ctx, cancel := r.reqCtx()
	defer cancel()
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := t.tes[subs[i].Shard].do(ctx, func(ctx context.Context, c *wire.TEClient, _ *endpoint[*wire.TEClient]) (any, error) {
				return c.GenerateVTWithCtx(ctx, subs[i].Sub)
			})
			if err != nil {
				errs[i] = fmt.Errorf("router: shard %d TE: %w", subs[i].Shard, err)
				return
			}
			vts[i] = v.(digest.Digest)
		}(i)
	}
	wg.Wait()
	var acc digest.Accumulator
	for i := range subs {
		if errs[i] != nil {
			return digest.Zero, errs[i]
		}
		acc.Add(vts[i])
	}
	return acc.Sum(), nil
}

func (r *Router) handleVT(t *topology, req wire.Frame, rb *wire.RespBuf) wire.Frame {
	q, err := wire.DecodeRange(req.Payload)
	if err != nil {
		return wire.ErrFrame(err)
	}
	vt, err := r.gatherVT(t, q)
	if err != nil {
		return wire.ErrFrame(err)
	}
	rb.Append(vt[:])
	return wire.Frame{Type: wire.MsgVT, Payload: rb.Bytes()}
}

func (r *Router) handleBatchVT(t *topology, req wire.Frame, rb *wire.RespBuf) wire.Frame {
	qs, err := wire.DecodeRanges(req.Payload)
	if err != nil {
		return wire.ErrFrame(err)
	}
	subs := make([][]record.Range, len(t.tes))
	owners := make([][]int, len(t.tes))
	for qi, q := range qs {
		for _, sq := range t.plan.Scatter(q) {
			subs[sq.Shard] = append(subs[sq.Shard], sq.Sub)
			owners[sq.Shard] = append(owners[sq.Shard], qi)
		}
	}
	ctx, cancel := r.reqCtx()
	defer cancel()
	shardVTs := make([][]digest.Digest, len(t.tes))
	errs := make([]error, len(t.tes))
	var wg sync.WaitGroup
	for idx := range t.tes {
		if len(subs[idx]) == 0 {
			continue
		}
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			v, err := t.tes[idx].do(ctx, func(ctx context.Context, c *wire.TEClient, _ *endpoint[*wire.TEClient]) (any, error) {
				return c.GenerateVTBatchCtx(ctx, subs[idx])
			})
			if err != nil {
				errs[idx] = fmt.Errorf("router: shard %d TE batch: %w", idx, err)
				return
			}
			shardVTs[idx] = v.([]digest.Digest)
		}(idx)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return wire.ErrFrame(err)
		}
	}
	accs := make([]digest.Accumulator, len(qs))
	for idx := range t.tes {
		for j, qi := range owners[idx] {
			accs[qi].Add(shardVTs[idx][j])
		}
	}
	rb.AppendUint32(uint32(len(qs)))
	for qi := range qs {
		sum := accs[qi].Sum()
		rb.Append(sum[:])
	}
	return wire.Frame{Type: wire.MsgBatchVTResult, Payload: rb.Bytes()}
}

// handleTOM routes a TOM query. A single-shard deployment relays the
// provider's answer verbatim (bit-identical to dialing it directly); a
// sharded one gathers each overlapping provider's (records + VO) blob
// and stitches them into a MsgTOMShardedResult the verifying client
// checks against the owner-signed shard bindings.
func (r *Router) handleTOM(t *topology, req wire.Frame, rb *wire.RespBuf) wire.Frame {
	if len(t.toms) == 0 {
		return wire.ErrFrame(fmt.Errorf("%w: router has no TOM upstreams", wire.ErrProtocol))
	}
	q, err := wire.DecodeRange(req.Payload)
	if err != nil {
		return wire.ErrFrame(err)
	}
	ctx, cancel := r.reqCtx()
	defer cancel()
	if t.plan.Shards() == 1 {
		v, err := t.toms[0].do(ctx, func(ctx context.Context, c *wire.TOMClient, _ *endpoint[*wire.TOMClient]) (any, error) {
			return c.QueryRawCtx(ctx, q)
		})
		if err != nil {
			return wire.ErrFrame(fmt.Errorf("router: TOM: %w", err))
		}
		rb.Append(v.([]byte))
		return wire.Frame{Type: wire.MsgTOMResult, Payload: rb.Bytes()}
	}
	subs := t.plan.Scatter(q)
	parts := make([]wire.TOMShardPart, len(subs))
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := t.toms[subs[i].Shard].do(ctx, func(ctx context.Context, c *wire.TOMClient, _ *endpoint[*wire.TOMClient]) (any, error) {
				return c.QueryRawCtx(ctx, subs[i].Sub)
			})
			if err != nil {
				errs[i] = fmt.Errorf("router: shard %d TOM: %w", subs[i].Shard, err)
				return
			}
			parts[i] = wire.TOMShardPart{Shard: subs[i].Shard, Sub: subs[i].Sub, Blob: v.([]byte)}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return wire.ErrFrame(err)
		}
	}
	plan := t.plan
	if tm := r.tamper.Load(); tm != nil && tm.reshapeTOM != nil {
		plan, parts = tm.reshapeTOM(plan, parts)
	}
	wire.AppendTOMShardedHeader(rb, plan, len(parts))
	for _, p := range parts {
		wire.AppendTOMShardedPart(rb, p.Shard, p.Sub, p.Blob)
	}
	return wire.Frame{Type: wire.MsgTOMShardedResult, Payload: rb.Bytes()}
}

// handleAggQuery scatters an aggregate query to the overlapping shard SPs
// and merges the partial scalars. This is the untrusted result path: the
// scatter goes through the tamper hooks and the merged scalar through
// forgeAgg, and the client's token comparison must catch anything a rogue
// router bends here.
func (r *Router) handleAggQuery(t *topology, req wire.Frame, rb *wire.RespBuf) wire.Frame {
	q, err := wire.DecodeRange(req.Payload)
	if err != nil {
		return wire.ErrFrame(err)
	}
	subs := r.scatterSubs(t, q)
	partials := make([]agg.Agg, len(subs))
	errs := make([]error, len(subs))
	ctx, cancel := r.reqCtx()
	defer cancel()
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := t.sps[subs[i].Shard].do(ctx, func(ctx context.Context, c *wire.SPClient, _ *endpoint[*wire.SPClient]) (any, error) {
				return c.AggregateWithCtx(ctx, subs[i].Sub)
			})
			if err != nil {
				errs[i] = fmt.Errorf("router: shard %d SP aggregate: %w", subs[i].Shard, err)
				return
			}
			partials[i] = v.(agg.Agg)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return wire.ErrFrame(err)
		}
	}
	// Contiguous non-overlapping clamps: the monoid fold over the partials
	// in any order is the whole range's scalar.
	var merged agg.Agg
	for _, a := range partials {
		merged = merged.Merge(a)
	}
	if tm := r.tamper.Load(); tm != nil && tm.forgeAgg != nil {
		merged = tm.forgeAgg(merged)
	}
	var buf [agg.Size]byte
	rb.Append(merged.Normalize().AppendTo(buf[:0]))
	return wire.Frame{Type: wire.MsgAggResult, Payload: rb.Bytes()}
}

// handleAggToken gathers the overlapping shard TEs' aggregate tokens and
// deterministically re-derives the whole-range token. Like gatherVT this
// models the authenticated client↔TE aggregate: the scatter uses the
// attested plan directly, every upstream token's tag is checked before its
// scalar is trusted, and the partials must seam-check back into q before
// the merged token is tagged. The tamper hooks never reach this path — a
// router that could rewrite token bytes is the compromised-TE-channel
// case, out of the model.
func (r *Router) handleAggToken(t *topology, req wire.Frame, rb *wire.RespBuf) wire.Frame {
	q, err := wire.DecodeRange(req.Payload)
	if err != nil {
		return wire.ErrFrame(err)
	}
	subs := t.plan.Scatter(q)
	toks := make([]agg.Token, len(subs))
	errs := make([]error, len(subs))
	ctx, cancel := r.reqCtx()
	defer cancel()
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := t.tes[subs[i].Shard].do(ctx, func(ctx context.Context, c *wire.TEClient, _ *endpoint[*wire.TEClient]) (any, error) {
				return c.AggTokenWithCtx(ctx, subs[i].Sub)
			})
			if err != nil {
				errs[i] = fmt.Errorf("router: shard %d TE aggregate token: %w", subs[i].Shard, err)
				return
			}
			toks[i] = v.(agg.Token)
		}(i)
	}
	wg.Wait()
	parts := make([]shard.AggPart, len(subs))
	for i := range subs {
		if errs[i] != nil {
			return wire.ErrFrame(errs[i])
		}
		if err := toks[i].Verify(subs[i].Sub, toks[i].Agg); err != nil {
			return wire.ErrFrame(fmt.Errorf("router: shard %d TE aggregate token: %w", subs[i].Shard, err))
		}
		parts[i] = shard.AggPart{Sub: subs[i].Sub, Agg: toks[i].Agg}
	}
	merged, err := shard.MergeAgg(q, parts)
	if err != nil {
		return wire.ErrFrame(fmt.Errorf("router: merging shard aggregate tokens: %w", err))
	}
	tok := agg.TokenFor(q, merged)
	var buf [agg.TokenSize]byte
	rb.Append(tok.AppendTo(buf[:0]))
	return wire.Frame{Type: wire.MsgAggToken, Payload: rb.Bytes()}
}

// handleTOMAgg routes a TOM aggregate query, mirroring handleTOM: a
// single-shard deployment relays the provider's aggregate VO verbatim; a
// sharded one stitches the per-shard aggregate VOs into a
// MsgTOMAggShardedResult the client verifies against the owner-signed
// shard bindings.
func (r *Router) handleTOMAgg(t *topology, req wire.Frame, rb *wire.RespBuf) wire.Frame {
	if len(t.toms) == 0 {
		return wire.ErrFrame(fmt.Errorf("%w: router has no TOM upstreams", wire.ErrProtocol))
	}
	q, err := wire.DecodeRange(req.Payload)
	if err != nil {
		return wire.ErrFrame(err)
	}
	ctx, cancel := r.reqCtx()
	defer cancel()
	if t.plan.Shards() == 1 {
		v, err := t.toms[0].do(ctx, func(ctx context.Context, c *wire.TOMClient, _ *endpoint[*wire.TOMClient]) (any, error) {
			return c.AggregateRawCtx(ctx, q)
		})
		if err != nil {
			return wire.ErrFrame(fmt.Errorf("router: TOM aggregate: %w", err))
		}
		rb.Append(v.([]byte))
		return wire.Frame{Type: wire.MsgTOMAggResult, Payload: rb.Bytes()}
	}
	subs := t.plan.Scatter(q)
	parts := make([]wire.TOMShardPart, len(subs))
	errs := make([]error, len(subs))
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := t.toms[subs[i].Shard].do(ctx, func(ctx context.Context, c *wire.TOMClient, _ *endpoint[*wire.TOMClient]) (any, error) {
				return c.AggregateRawCtx(ctx, subs[i].Sub)
			})
			if err != nil {
				errs[i] = fmt.Errorf("router: shard %d TOM aggregate: %w", subs[i].Shard, err)
				return
			}
			parts[i] = wire.TOMShardPart{Shard: subs[i].Shard, Sub: subs[i].Sub, Blob: v.([]byte)}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return wire.ErrFrame(err)
		}
	}
	plan := t.plan
	if tm := r.tamper.Load(); tm != nil && tm.reshapeTOM != nil {
		plan, parts = tm.reshapeTOM(plan, parts)
	}
	wire.AppendTOMShardedHeader(rb, plan, len(parts))
	for _, p := range parts {
		wire.AppendTOMShardedPart(rb, p.Shard, p.Sub, p.Blob)
	}
	return wire.Frame{Type: wire.MsgTOMAggShardedResult, Payload: rb.Bytes()}
}

// handleVerifiedQuery routes a stamped verified query across the
// verified-capable endpoint sets (each shard's replicas plus a combined
// primary). Each shard returns one atomic (epoch, gen, VT, records)
// quadruple; the merge stamps the spanning answer with the MINIMUM
// epoch and MINIMUM generation (the freshest bounds that hold for every
// part), XORs the per-shard tokens and splices the record payloads in
// shard order — so the client's single-system verification (XOR match,
// key order, containment) and its lexicographic (epoch, gen) freshness
// floor both apply unchanged. During a reshard transition a surviving
// primary may already attest the successor epoch while the rest of the
// answer is served under the old one; stamping min keeps the merged
// claim honest (the answer is only as new as its oldest part). The
// scatter goes through the tamper hooks: an adversarial router that
// scatters under a forged plan produces seam sub-queries that escape
// the shards' spans, and the span-clamped servers refuse them.
func (r *Router) handleVerifiedQuery(t *topology, req wire.Frame, rb *wire.RespBuf) wire.Frame {
	q, err := wire.DecodeRange(req.Payload)
	if err != nil {
		return wire.ErrFrame(err)
	}
	subs := r.scatterSubs(t, q)
	raws := make([][]byte, len(subs))
	errs := make([]error, len(subs))
	ctx, cancel := r.reqCtx()
	defer cancel()
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			set := t.vqs[subs[i].Shard]
			v, err := set.do(ctx, func(ctx context.Context, c *wire.VerifiedClient, ep *endpoint[*wire.VerifiedClient]) (any, error) {
				raw, err := c.QueryRawVerifiedCtx(ctx, subs[i].Sub)
				if err != nil {
					return nil, err
				}
				_, gen, _, _, err := wire.DecodeVerifiedResult(raw)
				if err != nil {
					return nil, err
				}
				if set.noteGen(ep, gen) {
					return nil, fmt.Errorf("%w: shard %d endpoint stamped %d, newest observed %d",
						errStale, subs[i].Shard, gen, set.maxGen.Load())
				}
				return raw, nil
			})
			if err != nil {
				errs[i] = fmt.Errorf("router: shard %d verified: %w", subs[i].Shard, err)
				return
			}
			raws[i] = v.([]byte)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return wire.ErrFrame(err)
		}
	}
	if tm := r.tamper.Load(); tm != nil && tm.replayVerified != nil {
		raws = tm.replayVerified(raws)
	}
	var acc digest.Accumulator
	var minEpoch, minGen uint64
	encs := make([][]byte, len(raws))
	total := 0
	for i, raw := range raws {
		epoch, gen, vt, recsRaw, err := wire.DecodeVerifiedResult(raw)
		if err != nil {
			return wire.ErrFrame(fmt.Errorf("router: shard %d verified result: %w", subs[i].Shard, err))
		}
		enc, rest, _, err := wire.RecordsView(recsRaw)
		if err != nil {
			return wire.ErrFrame(fmt.Errorf("router: shard %d verified result: %w", subs[i].Shard, err))
		}
		if len(rest) != 0 {
			return wire.ErrFrame(fmt.Errorf("%w: shard %d verified result carries %d trailing bytes",
				wire.ErrProtocol, subs[i].Shard, len(rest)))
		}
		acc.Add(vt)
		if i == 0 || gen < minGen {
			minGen = gen
		}
		if i == 0 || epoch < minEpoch {
			minEpoch = epoch
		}
		encs[i] = enc
		total += len(enc) / record.Size
	}
	// Clamp the stamped epoch to the topology this answer was assembled
	// under. Mid-reshard a surviving primary already attests epoch v+1
	// while the router still scatters by the epoch-v plan; stamping v+1
	// here would make a later (equally honest) epoch-v answer look like a
	// regression to the client's floor. The clamp is honest — geometry,
	// clamping and merge all followed the epoch-v plan — and clamping is
	// all a rogue router could do anyway: under-stamping only trips the
	// client's per-epoch generation floor once the real cutover lands.
	if e := t.plan.Epoch(); minEpoch > e {
		minEpoch = e
	}
	rb.AppendUint64(minEpoch)
	rb.AppendUint64(minGen)
	vt := acc.Sum()
	rb.Append(vt[:])
	rb.AppendUint32(uint32(total))
	for _, enc := range encs {
		rb.Append(enc)
	}
	return wire.Frame{Type: wire.MsgVerifiedResult, Payload: rb.Bytes()}
}

// handleGenStamp reports the freshest generation at which a spanning
// verified answer could currently be served: the minimum over shards of
// the newest stamp observed from any of the shard's verified-capable
// endpoints. Clients use it to seed a freshness floor (QueryAtLeast);
// they never need to trust it — a floor built on a lying stamp only ever
// REJECTS more.
func (r *Router) handleGenStamp(t *topology, rb *wire.RespBuf) wire.Frame {
	var min uint64
	for i, s := range t.vqs {
		g := s.maxGen.Load()
		if i == 0 || g < min {
			min = g
		}
	}
	rb.AppendUint64(min)
	return wire.Frame{Type: wire.MsgGenStamp, Payload: rb.Bytes()}
}
