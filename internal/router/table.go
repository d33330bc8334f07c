package router

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"sae/internal/agg"
	"sae/internal/digest"
	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/wire"
)

// row is one line of the router's frame table: how one client frame is
// answered, with a want-typed frame. A local row answers from the
// router's own state. Every other row is a scatter row: the client's
// range is cut into per-shard sub-queries (subs), each goes as one leg
// frame to its shard's role set — failover, hedging and the staleness bar
// applied per leg — and merge folds the want-typed reply payloads, in
// shard order, into the client's answer.
type row struct {
	local func(r *Router, t *topology, req wire.Frame, rb *wire.RespBuf) error

	role role
	// subs is attestedSubs on the token path (it models the authenticated
	// client↔TE aggregate, out of a rogue router's reach), tamperedSubs on
	// the untrusted result path, where the adversarial hooks interpose.
	subs      func(r *Router, t *topology, q record.Range) []shard.SubQuery
	leg, want wire.MsgType
	size      int    // the reply payload's fixed length; 0 = any
	what      string // names the leg in error frames
	// accept, when set, judges each reply inside the failover loop: its
	// error sends the leg to a sibling endpoint.
	accept func(ep *endpoint, payload []byte) error
	merge  func(r *Router, t *topology, g *gather, rb *wire.RespBuf) error
}

// gather is one scattered request on its way to its merge.
type gather struct {
	q     record.Range
	subs  []shard.SubQuery
	parts [][]byte // reply payloads, aligned with subs
}

// rows is the router's frame table, indexed by client frame number. A
// frame without a row — owner updates (owners update the shards
// directly), replication, the reshard lifecycle, the retired numbers —
// is refused with wire.CannotHandle.
var rows = [...]row{
	wire.MsgQuery:         {role: roleSP, subs: tamperedSubs, leg: wire.MsgQuery, want: wire.MsgResult, what: "SP", merge: mergeRecords},
	wire.MsgVTRequest:     {role: roleTE, subs: attestedSubs, leg: wire.MsgVTRequest, want: wire.MsgVT, size: digest.Size, what: "TE", merge: mergeVT},
	wire.MsgAggQuery:      {role: roleSP, subs: tamperedSubs, leg: wire.MsgAggQuery, want: wire.MsgAggResult, size: agg.Size, what: "SP aggregate", merge: mergeAgg},
	wire.MsgAggTokenReq:   {role: roleTE, subs: attestedSubs, leg: wire.MsgAggTokenReq, want: wire.MsgAggToken, size: agg.TokenSize, what: "TE aggregate token", merge: mergeAggToken},
	wire.MsgVerifiedQuery: {role: roleVerified, subs: tamperedSubs, leg: wire.MsgVerifiedQuery, want: wire.MsgVerifiedResult, what: "verified", accept: acceptVerified, merge: mergeVerified},

	wire.MsgShardMapReq:    {local: localShardMap, want: wire.MsgShardMap},
	wire.MsgGenStampReq:    {local: localGenStamp, want: wire.MsgGenStamp},
	wire.MsgReshardCutover: {local: localCutover, want: wire.MsgAck},
}

// handle maps one client request to one response frame. Every row
// either returns the complete merged answer or an error frame — a
// failed or timed-out shard can never surface as a truncated result.
// The topology is snapshotted ONCE per attempt: a reshard cutover
// landing mid-request never mixes two topologies inside one answer.
func (r *Router) handle(req wire.Frame, rb *wire.RespBuf) wire.Frame {
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

// handleOn answers one frame against one topology through its row.
func (r *Router) handleOn(t *topology, req wire.Frame, rb *wire.RespBuf) wire.Frame {
	if int(req.Type) >= len(rows) || (rows[req.Type].local == nil && rows[req.Type].merge == nil) {
		return wire.ErrFrame(wire.CannotHandle("router", req.Type))
	}
	ro := &rows[req.Type]
	if err := r.answer(t, ro, req, rb); err != nil {
		return wire.ErrFrame(err)
	}
	return rb.Frame(ro.want)
}

func (r *Router) answer(t *topology, ro *row, req wire.Frame, rb *wire.RespBuf) error {
	if ro.local != nil {
		return ro.local(r, t, req, rb)
	}
	q, err := wire.DecodeRange(req.Payload)
	if err != nil {
		return err
	}
	ctx, cancel := r.reqCtx()
	defer cancel()
	g, err := r.collect(ctx, t, ro, q)
	hold(rb, g.parts)
	if err != nil {
		return err
	}
	return ro.merge(r, t, &g, rb)
}

// collect scatters q through a scatter row and returns what its merge
// folds.
func (r *Router) collect(ctx context.Context, t *topology, ro *row, q record.Range) (gather, error) {
	sets := t.sets[ro.role]
	if len(sets) == 0 {
		return gather{}, fmt.Errorf("%w: router has no %s upstreams", wire.ErrProtocol, ro.role)
	}
	g := gather{q: q, subs: ro.subs(r, t, q)}
	var err error
	g.parts, err = scatter(ctx, sets, g.subs, ro)
	return g, err
}

// hold hands gathered reply payloads, the router's now, to the response
// buffer. The merge may reference their bytes in the answer, so they go
// back to the receive pool with it: once the answer is on the client's
// socket.
func hold(rb *wire.RespBuf, parts [][]byte) {
	for _, p := range parts {
		rb.Hold(p)
	}
}

// scatter sends one leg frame per sub-query to its shard's endpoint set
// and returns the reply payloads in sub-query (= shard) order. The first
// leg runs on the calling goroutine — for all but a seam-straddling range
// it is the only one. The first failed leg in shard order fails the whole
// request, naming its shard.
func scatter(ctx context.Context, sets []*endpointSet, subs []shard.SubQuery, ro *row) ([][]byte, error) {
	parts := make([][]byte, len(subs))
	errs := make([]error, len(subs))
	leg := func(i int) {
		parts[i], errs[i] = sets[subs[i].Shard].do(ctx, func(ctx context.Context, c *wire.Conn, ep *endpoint) ([]byte, error) {
			resp, err := c.RoundTripCtx(ctx, wire.Frame{Type: ro.leg, Payload: wire.EncodeRange(subs[i].Sub)})
			if err != nil {
				return nil, err
			}
			if resp.Type != ro.want || (ro.size != 0 && len(resp.Payload) != ro.size) {
				err = fmt.Errorf("%w: malformed %s response", wire.ErrProtocol, wire.FrameName(ro.leg))
			} else if ro.accept != nil {
				err = ro.accept(ep, resp.Payload)
			}
			if err != nil {
				wire.Release(resp.Payload)
				return nil, err
			}
			return resp.Payload, nil
		})
	}
	var wg sync.WaitGroup
	for i := 1; i < len(subs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			leg(i)
		}(i)
	}
	if len(subs) > 0 {
		leg(0)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, p := range parts {
				wire.Release(p) // the legs that did answer
			}
			return nil, fmt.Errorf("router: shard %d %s: %w", subs[i].Shard, ro.what, err)
		}
	}
	return parts, nil
}

func attestedSubs(_ *Router, t *topology, q record.Range) []shard.SubQuery {
	return t.plan.Scatter(q)
}

// tamperedSubs is attestedSubs with the adversarial test hooks interposed
// (forged plans, narrowed seams), mirroring an attacker who can bend the
// untrusted result path but not the TE aggregation. A scatter under a
// forged plan produces seam sub-queries that escape the shards' spans,
// which span-clamped servers refuse.
func tamperedSubs(r *Router, t *topology, q record.Range) []shard.SubQuery {
	tm := r.tamper.Load()
	if tm != nil && tm.scatterPlan != nil {
		return tm.scatterPlan.Scatter(q)
	}
	subs := t.plan.Scatter(q)
	if tm != nil && tm.reshapeSubs != nil {
		subs = tm.reshapeSubs(subs)
	}
	return subs
}

// recordsOf validates one shard's EncodeRecords payload for framing and
// returns its packed records (count stripped), without decoding one.
func recordsOf(raw []byte, shardIdx int, what string) ([]byte, error) {
	enc, rest, _, err := wire.RecordsView(raw)
	if err != nil {
		return nil, fmt.Errorf("router: shard %d %s: %w", shardIdx, what, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: shard %d %s carries %d trailing bytes", wire.ErrProtocol, shardIdx, what, len(rest))
	}
	return enc, nil
}

// splice appends the merged EncodeRecords payload: the total count, then
// every shard's packed records by reference — the answer's vectored write
// reads them out of the upstream payloads they arrived in. Contiguous
// partitions: the shard payloads in shard order are the key-order merge,
// byte-for-byte what a single SP serving the whole dataset would have
// encoded.
func splice(rb *wire.RespBuf, encs [][]byte) {
	total := 0
	for _, enc := range encs {
		total += len(enc) / record.Size
	}
	rb.AppendUint32(uint32(total))
	for _, enc := range encs {
		rb.AppendRef(enc)
	}
}

func mergeRecords(r *Router, _ *topology, g *gather, rb *wire.RespBuf) error {
	encs := make([][]byte, len(g.parts))
	for i, raw := range g.parts {
		var err error
		if encs[i], err = recordsOf(raw, g.subs[i].Shard, "result"); err != nil {
			return err
		}
	}
	if tm := r.tamper.Load(); tm != nil && tm.reshapeParts != nil {
		encs = tm.reshapeParts(encs)
	}
	splice(rb, encs)
	return nil
}

// mergeVT XOR-combines the shard TEs' tokens: every TE holds only its own
// partition, so the XOR over the clamped sub-ranges IS the token a single
// TE over the whole dataset would have issued.
func mergeVT(_ *Router, _ *topology, g *gather, rb *wire.RespBuf) error {
	var acc digest.Accumulator
	for _, p := range g.parts {
		acc.Add(digest.FromBytes(p))
	}
	vt := acc.Sum()
	rb.Append(vt[:])
	return nil
}

// mergeAgg folds the partial scalars (contiguous non-overlapping clamps:
// the monoid fold in any order is the whole range's scalar). This is the
// SP's unverified aggregate; no verified answer carries it.
func mergeAgg(_ *Router, _ *topology, g *gather, rb *wire.RespBuf) error {
	var merged agg.Agg
	for _, p := range g.parts {
		merged = merged.Merge(agg.FromBytes(p))
	}
	var buf [agg.Size]byte
	rb.Append(merged.Normalize().AppendTo(buf[:0]))
	return nil
}

// mergeAggToken deterministically re-derives the whole-range token: every
// upstream token's tag is checked against its shard's clamp before its
// aggregate is trusted, and the partials must seam-check back into q
// before the merged token is tagged. The merged token is the whole
// verified aggregate, scattered under the attested plan, so no rogue
// scatter reaches it; a forged aggregate (forgeAgg) leaves untagged, and
// the client's tag check refuses it.
func mergeAggToken(r *Router, _ *topology, g *gather, rb *wire.RespBuf) error {
	parts := make([]shard.AggPart, len(g.parts))
	for i, p := range g.parts {
		sub := g.subs[i].Sub
		a, err := agg.TokenFromBytes(p).Check(sub)
		if err != nil {
			return fmt.Errorf("router: shard %d TE aggregate token: %w", g.subs[i].Shard, err)
		}
		parts[i] = shard.AggPart{Sub: sub, Agg: a}
	}
	merged, err := shard.MergeAgg(g.q, parts)
	if err != nil {
		return fmt.Errorf("router: merging shard aggregate tokens: %w", err)
	}
	tok := agg.TokenFor(g.q, merged)
	if tm := r.tamper.Load(); tm != nil && tm.forgeAgg != nil {
		tok.Agg = tm.forgeAgg(tok.Agg)
	}
	var buf [agg.TokenSize]byte
	rb.Append(tok.AppendTo(buf[:0]))
	return nil
}

// acceptVerified records the generation stamp a verified leg carries and
// rejects the answer when its upstream lags the shard's freshness bar.
func acceptVerified(ep *endpoint, raw []byte) error {
	_, gen, _, _, err := wire.DecodeVerifiedResult(raw)
	if err != nil {
		return err
	}
	if ep.noteGen(gen) {
		return fmt.Errorf("%w: shard %d endpoint stamped %d, newest observed %d",
			errStale, ep.shard, gen, ep.fresh.maxGen.Load())
	}
	return nil
}

// mergeVerified merges the shards' atomic (epoch, gen, VT, records)
// quadruples: the spanning answer is stamped with the MINIMUM epoch and
// MINIMUM generation (the freshest bounds that hold for every part), the
// per-shard tokens are XORed and the record sections referenced in shard
// order — so the client's single-system verification (XOR match, key
// order, containment) and its lexicographic (epoch, gen) freshness floor
// both apply unchanged. During a reshard transition a surviving primary
// may already attest the successor epoch while the rest of the answer is
// served under the old one; stamping min keeps the merged claim honest
// (the answer is only as new as its oldest part).
func mergeVerified(r *Router, t *topology, g *gather, rb *wire.RespBuf) error {
	raws := g.parts
	if tm := r.tamper.Load(); tm != nil && tm.replayVerified != nil {
		raws = tm.replayVerified(raws)
	}
	var acc digest.Accumulator
	var minEpoch, minGen uint64
	encs := make([][]byte, len(raws))
	for i, raw := range raws {
		epoch, gen, vt, recsRaw, err := wire.DecodeVerifiedResult(raw)
		if err != nil {
			return fmt.Errorf("router: shard %d verified result: %w", g.subs[i].Shard, err)
		}
		if encs[i], err = recordsOf(recsRaw, g.subs[i].Shard, "verified result"); err != nil {
			return err
		}
		acc.Add(vt)
		if i == 0 || gen < minGen {
			minGen = gen
		}
		if i == 0 || epoch < minEpoch {
			minEpoch = epoch
		}
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
	splice(rb, encs)
	return nil
}

// localShardMap relays the TE-attested partition plan for observability
// and tooling. The index slot is meaningless for a router; by convention
// it reports 0. Clients never need this answer — the whole point of the
// tier is that they treat the router as a stand-alone system — and must
// not trust it: verification never depends on it.
func localShardMap(_ *Router, t *topology, _ wire.Frame, rb *wire.RespBuf) error {
	rb.Append(wire.EncodeShardInfo(wire.ShardInfo{Index: 0, Plan: t.plan}))
	return nil
}

// localGenStamp reports the freshest generation at which a spanning
// verified answer could currently be served: the minimum over shards of
// the newest stamp observed from any of the shard's upstreams. Clients
// use it to seed a freshness floor (QueryAtLeast); they never need to
// trust it — a floor built on a lying stamp only ever REJECTS more.
func localGenStamp(_ *Router, t *topology, _ wire.Frame, rb *wire.RespBuf) error {
	gen := t.fresh[0].maxGen.Load()
	for _, f := range t.fresh[1:] {
		gen = min(gen, f.maxGen.Load())
	}
	rb.AppendUint64(gen)
	return nil
}

func localCutover(r *Router, _ *topology, req wire.Frame, _ *wire.RespBuf) error {
	cut, err := wire.DecodeCutover(req.Payload)
	if err != nil {
		return err
	}
	return r.Cutover(cut)
}
