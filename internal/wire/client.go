package wire

import (
	"context"
	"fmt"
	"net"
	"sync"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/mbtree"
	"sae/internal/record"
	"sae/internal/sigs"
	"sae/internal/tom"
)

// Conn is a persistent pipelined connection with byte accounting. Every
// typed client below is a face over one (it embeds it), and the router
// tier speaks to its upstreams through nothing else. It is safe for
// concurrent use, and concurrent calls PIPELINE instead of serializing:
// each request gets a fresh id, a background loop demultiplexes responses
// by id, so N goroutines sharing one connection keep N requests in flight
// at the server.
type Conn struct {
	c net.Conn

	// wmu serializes frame writes so concurrent requests do not
	// interleave bytes on the socket.
	wmu sync.Mutex

	mu      sync.Mutex // guards everything below
	pending map[uint32]chan Frame
	nextID  uint32
	sent    int64
	receivd int64
	err     error // terminal receive-loop error; set once
}

// Dial connects to any server of this protocol; there is no handshake,
// so what the peer serves is learned by asking (ShardMap, or a frame it
// answers with CannotHandle).
func Dial(addr string) (*Conn, error) { return DialCtx(context.Background(), addr) }

// DialCtx is Dial bounded by a context: without one, connecting to an
// address that drops SYNs instead of refusing them blocks for the
// kernel's connect timeout (minutes).
func DialCtx(ctx context.Context, addr string) (*Conn, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", addr, err)
	}
	c := &Conn{c: nc, pending: make(map[uint32]chan Frame)}
	go c.readLoop()
	return c, nil
}

// readLoop receives response frames into pooled payloads and hands each
// to the waiter registered under its request id, who owns the payload
// from then on; a frame nobody waits for any more (its request was
// abandoned) goes straight back to the pool. On a receive error every
// waiter is failed and the connection becomes unusable.
func (c *Conn) readLoop() {
	for {
		resp, err := ReadFrame(c.c)
		if err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		c.receivd += int64(HeaderSize + len(resp.Payload))
		ch, ok := c.pending[resp.ID]
		if ok {
			delete(c.pending, resp.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- resp // buffered; never blocks
		} else {
			Release(resp.Payload)
		}
	}
}

// fail marks the connection broken and wakes every in-flight request.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
}

// roundTrip sends one frame and waits for its tagged response,
// translating MsgErr. Concurrent calls pipeline on the connection.
func (c *Conn) roundTrip(req Frame) (Frame, error) {
	return c.RoundTripCtx(context.Background(), req)
}

// RoundTripCtx sends one frame and waits for its tagged response,
// translating MsgErr into a *ServerError, bounded by a context: if ctx
// expires before the tagged response arrives, the request is abandoned
// (its pending entry removed, so a late response is discarded by the
// demux loop) and ctx's error returned. The connection itself stays
// healthy — a slow response poisons one request, not the pipeline. The
// caller owns the response's payload and may Release it once done.
func (c *Conn) RoundTripCtx(ctx context.Context, req Frame) (Frame, error) {
	ch := make(chan Frame, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return Frame{}, err
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := WriteFrame(c.c, req)
	c.wmu.Unlock()
	if err != nil {
		// A failed write may have left a partial frame on the shared
		// stream; nothing sent after it can be framed correctly, so the
		// whole connection is broken, not just this request.
		c.fail(err)
		return Frame{}, err
	}
	c.mu.Lock()
	c.sent += int64(HeaderSize + len(req.Payload))
	c.mu.Unlock()

	var resp Frame
	var ok bool
	select {
	case resp, ok = <-ch:
	case <-ctx.Done():
		c.mu.Lock()
		_, waiting := c.pending[req.ID]
		delete(c.pending, req.ID)
		c.mu.Unlock()
		if !waiting {
			// The demux loop took the entry first: the reply (or the close
			// of a failed connection) is already on its way into ch.
			resp = <-ch
			Release(resp.Payload)
		}
		return Frame{}, fmt.Errorf("wire: request abandoned: %w", ctx.Err())
	}
	if !ok {
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = fmt.Errorf("wire: connection closed")
		}
		return Frame{}, err
	}
	if resp.Type == MsgErr {
		return Frame{}, &ServerError{Msg: string(resp.Payload)}
	}
	return resp, nil
}

// ServerError is an application-level failure the server reported in a
// well-formed MsgErr frame. The distinction matters to the router's
// failover logic: a ServerError came over a healthy connection and would
// recur on any correct upstream (bad range, unknown message), so it is
// returned to the client as-is; every other round-trip error implicates
// the connection and triggers eviction + retry.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "wire: server error: " + e.Msg }

// ask is the shape of every typed call: one request frame out, and the
// tagged response must be the frame type the request's row answers with.
// It returns the response payload.
func (c *Conn) ask(ctx context.Context, typ MsgType, payload []byte, want MsgType) ([]byte, error) {
	resp, err := c.RoundTripCtx(ctx, Frame{Type: typ, Payload: payload})
	if err != nil {
		return nil, err
	}
	if resp.Type != want {
		return nil, fmt.Errorf("%w: unexpected response type %d", ErrProtocol, resp.Type)
	}
	return resp.Payload, nil
}

// Err reports the connection's terminal receive-loop error, nil while the
// connection is healthy. Endpoint pools poll it to evict broken
// connections before handing them to the next request.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// BytesSent returns the bytes written to this connection so far.
func (c *Conn) BytesSent() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sent
}

// BytesReceived returns the bytes read from this connection so far.
func (c *Conn) BytesReceived() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.receivd
}

// Close closes the connection; in-flight requests fail.
func (c *Conn) Close() error { return c.c.Close() }

// SPClient talks to an SAE service provider.
type SPClient struct{ *Conn }

// DialSP connects to an SP server.
func DialSP(addr string) (*SPClient, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	return &SPClient{Conn: c}, nil
}

// Query fetches the result records for a range.
func (c *SPClient) Query(q record.Range) ([]record.Record, error) {
	raw, err := c.QueryRaw(q)
	if err != nil {
		return nil, err
	}
	defer Release(raw) // DecodeRecords copies
	recs, rest, err := DecodeRecords(raw)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in result", ErrProtocol, len(rest))
	}
	return recs, nil
}

// QueryRaw fetches the result for a range still in wire form — the
// EncodeRecords payload (count + packed canonical records). The verifying
// client hashes these bytes in place (digest.OfWire) before ever
// materializing a record. The payload is the caller's: it may Release it
// once done, or just drop it.
func (c *SPClient) QueryRaw(q record.Range) ([]byte, error) {
	return c.QueryRawCtx(context.Background(), q)
}

// QueryRawCtx is QueryRaw bounded by a context.
func (c *SPClient) QueryRawCtx(ctx context.Context, q record.Range) ([]byte, error) {
	return c.ask(ctx, MsgQuery, EncodeRange(q), MsgResult)
}

// InsertBatch pushes a whole insertion batch in one frame to any party
// with a write path (SP, TE, TOM provider, primary); the server applies
// it as one commit group. A single insert is a batch of one.
func (c *Conn) InsertBatch(recs []record.Record) error {
	return c.expectAck(MsgBatchInsert, EncodeRecords(recs))
}

// DeleteBatch pushes a whole deletion batch in one frame; the server
// applies it as one commit group. A single delete is a batch of one.
func (c *Conn) DeleteBatch(ids []record.ID, keys []record.Key) error {
	return c.expectAck(MsgBatchDelete, EncodeDeletes(ids, keys))
}

// ShardMap asks the server which shard it is and under which partition
// plan it was loaded. Stand-alone servers answer "shard 0 of 1".
func (c *Conn) ShardMap() (ShardInfo, error) {
	return c.ShardMapCtx(context.Background())
}

// ShardMapCtx is ShardMap bounded by a context (the router's health
// prober re-checks attestations on reconnect and must not hang on a sick
// upstream).
func (c *Conn) ShardMapCtx(ctx context.Context) (ShardInfo, error) {
	p, err := c.ask(ctx, MsgShardMapReq, nil, MsgShardMap)
	if err != nil {
		return ShardInfo{}, err
	}
	return DecodeShardInfo(p)
}

func (c *Conn) expectAck(typ MsgType, payload []byte) error {
	_, err := c.ask(context.Background(), typ, payload, MsgAck)
	return err
}

// TEClient talks to a trusted entity.
type TEClient struct{ *Conn }

// DialTE connects to a TE server.
func DialTE(addr string) (*TEClient, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	return &TEClient{Conn: c}, nil
}

// GenerateVT fetches the verification token for a range.
func (c *TEClient) GenerateVT(q record.Range) (digest.Digest, error) {
	return c.GenerateVTWithCtx(context.Background(), q)
}

// GenerateVTWithCtx is GenerateVT bounded by a context.
func (c *TEClient) GenerateVTWithCtx(ctx context.Context, q record.Range) (digest.Digest, error) {
	p, err := c.ask(ctx, MsgVTRequest, EncodeRange(q), MsgVT)
	if err != nil {
		return digest.Zero, err
	}
	return decodeVT(p)
}

func decodeVT(p []byte) (digest.Digest, error) {
	if len(p) != digest.Size {
		return digest.Zero, fmt.Errorf("%w: malformed token response", ErrProtocol)
	}
	return digest.FromBytes(p), nil
}

// TOMClient talks to a TOM provider.
type TOMClient struct{ *Conn }

// DialTOM connects to a TOM provider server.
func DialTOM(addr string) (*TOMClient, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	return &TOMClient{Conn: c}, nil
}

// Query fetches result records plus their verification object from a
// single (unsharded) TOM provider.
func (c *TOMClient) Query(q record.Range) ([]record.Record, *mbtree.VO, error) {
	resp, err := c.queryFrame(q)
	if err != nil {
		return nil, nil, err
	}
	defer Release(resp.Payload) // decodeTOMResult copies
	if resp.Type != MsgTOMResult {
		return nil, nil, fmt.Errorf("%w: unexpected response type %d", ErrProtocol, resp.Type)
	}
	return decodeTOMResult(resp.Payload)
}

// queryFrame sends a TOM query and returns the raw response frame, which
// may be a single-provider MsgTOMResult or a router's MsgTOMShardedResult.
func (c *TOMClient) queryFrame(q record.Range) (Frame, error) {
	return c.roundTrip(Frame{Type: MsgTOMQuery, Payload: EncodeRange(q)})
}

// decodeTOMResult splits a MsgTOMResult payload into records and VO.
func decodeTOMResult(payload []byte) ([]record.Record, *mbtree.VO, error) {
	recs, rest, err := DecodeRecords(payload)
	if err != nil {
		return nil, nil, err
	}
	vo, err := mbtree.UnmarshalVO(rest)
	if err != nil {
		return nil, nil, err
	}
	return recs, vo, nil
}

// VerifyingClient performs the full SAE protocol over the network: it
// queries the SP and the TE concurrently (the paper's latency optimization)
// and verifies the result before returning it.
//
// Verification takes the zero-copy fast path: the SP's payload is hashed
// record-by-record where it sits in the received frame (no intermediate
// record materialization, SHA-NI digests, fanned out across
// VerifyWorkers goroutines) and only then decoded for the caller.
type VerifyingClient struct {
	SP *SPClient
	TE *TEClient
	// VerifyWorkers bounds the verification fan-out; 0 selects the
	// default crypto pool size (digest.DefaultWorkers).
	VerifyWorkers int
}

// DialVerifying connects to both SAE parties.
func DialVerifying(spAddr, teAddr string) (*VerifyingClient, error) {
	sp, err := DialSP(spAddr)
	if err != nil {
		return nil, err
	}
	te, err := DialTE(teAddr)
	if err != nil {
		sp.Close()
		return nil, err
	}
	return &VerifyingClient{SP: sp, TE: te}, nil
}

// Close closes both connections.
func (v *VerifyingClient) Close() error {
	err1 := v.SP.Close()
	err2 := v.TE.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Query runs the verified range query: QueryBurst of one. It returns the
// records only if they passed verification against the TE's token.
func (v *VerifyingClient) Query(q record.Range) ([]record.Record, error) {
	rs, err := v.QueryBurst([]record.Range{q})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// VerifyingTOMClient performs the full TOM protocol over the network. It
// accepts both answer forms: a single provider's records + VO, and a
// router's stitched per-shard evidence (MsgTOMShardedResult), which it
// verifies with the same stitched-VO logic as the in-process sharded
// system — the relayed plan is untrusted, but every shard's VO signature
// binds the owner-signed plan, so a router cannot forge the topology.
type VerifyingTOMClient struct {
	Provider *TOMClient
	Verifier *sigs.Verifier
	// VerifyWorkers bounds the VO re-hashing fan-out; 0 selects the
	// default crypto pool size.
	VerifyWorkers int
}

// Query runs the verified TOM range query.
func (v *VerifyingTOMClient) Query(q record.Range) ([]record.Record, error) {
	resp, err := v.Provider.queryFrame(q)
	if err != nil {
		return nil, err
	}
	defer Release(resp.Payload) // records and VOs are decoded copies
	switch resp.Type {
	case MsgTOMResult:
		recs, vo, err := decodeTOMResult(resp.Payload)
		if err != nil {
			return nil, err
		}
		if err := mbtree.VerifyVOWorkers(vo, recs, q.Lo, q.Hi, v.Verifier, v.VerifyWorkers); err != nil {
			return nil, err
		}
		return recs, nil
	case MsgTOMShardedResult:
		return v.verifySharded(q, resp.Payload)
	default:
		return nil, fmt.Errorf("%w: unexpected response type %d", ErrProtocol, resp.Type)
	}
}

// verifySharded checks a router's stitched TOM evidence: decode the plan
// and per-shard parts, rebuild the tom.ShardVO list and run the sharded
// client verification (boundary continuity from the plan's own clamps,
// shard-identity-bound signatures per VO). A nil error proves the merged
// result sound and complete for all of q, with no trust in the router.
func (v *VerifyingTOMClient) verifySharded(q record.Range, payload []byte) ([]record.Record, error) {
	plan, parts, err := DecodeTOMSharded(payload)
	if err != nil {
		return nil, err
	}
	perShard := make([]tom.ShardVO, len(parts))
	var merged []record.Record
	for i, p := range parts {
		recs, vo, err := decodeTOMResult(p.Blob)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d evidence: %v", ErrProtocol, p.Shard, err)
		}
		perShard[i] = tom.ShardVO{Shard: p.Shard, Sub: p.Sub, Result: recs, VO: vo}
		merged = append(merged, recs...)
	}
	sc := tom.ShardedClient{Verifier: v.Verifier, Plan: plan}
	if _, err := sc.Verify(q, perShard); err != nil {
		return nil, err
	}
	return merged, nil
}

// roundTripMany pipelines a group of requests as one unit: every frame's
// id is assigned under one registration, the whole group goes to the
// socket in a single vectored write (one syscall instead of 2 per
// frame), and the responses — demultiplexed by id as usual — are
// collected in request order. This is the client half of burst serving:
// a group sent this way lands in the server's read buffer together, so a
// burst-mode server drains it in one read wakeup and serves it as one
// unit. Responses align with reqs; the first MsgErr response aborts as a
// *ServerError carrying its query index (later responses drain harmlessly
// through the demux loop, so the connection stays usable).
func (c *Conn) roundTripMany(reqs []Frame) ([]Frame, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	chs := make([]chan Frame, len(reqs))
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	for i := range reqs {
		c.nextID++
		reqs[i].ID = c.nextID
		chs[i] = make(chan Frame, 1)
		c.pending[reqs[i].ID] = chs[i]
	}
	c.mu.Unlock()

	hdrs := make([]byte, len(reqs)*HeaderSize)
	iov := make(net.Buffers, 0, 2*len(reqs))
	total := 0
	for i := range reqs {
		h := hdrs[i*HeaderSize : (i+1)*HeaderSize]
		putHeader(h, reqs[i].Type, reqs[i].ID, len(reqs[i].Payload))
		iov = append(iov, h)
		if len(reqs[i].Payload) > 0 {
			iov = append(iov, reqs[i].Payload)
		}
		total += HeaderSize + len(reqs[i].Payload)
	}
	c.wmu.Lock()
	_, err := iov.WriteTo(c.c)
	c.wmu.Unlock()
	if err != nil {
		// A partial gather write breaks the framing for everything after
		// it, exactly like a failed WriteFrame.
		c.fail(err)
		return nil, err
	}
	c.mu.Lock()
	c.sent += int64(total)
	c.mu.Unlock()

	resps := make([]Frame, len(reqs))
	for i, ch := range chs {
		resp, ok := <-ch
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			if err == nil {
				err = fmt.Errorf("wire: connection closed")
			}
			return nil, err
		}
		if resp.Type == MsgErr {
			return nil, &ServerError{Msg: fmt.Sprintf("query %d: %s", i, resp.Payload)}
		}
		resps[i] = resp
	}
	return resps, nil
}

// askMany is ask for a group of ranges pipelined as one burst: one typ
// frame per range, every response of type want. Payloads align with qs.
func (c *Conn) askMany(typ MsgType, qs []record.Range, want MsgType) ([][]byte, error) {
	reqs := make([]Frame, len(qs))
	for i, q := range qs {
		reqs[i] = Frame{Type: typ, Payload: EncodeRange(q)}
	}
	resps, err := c.roundTripMany(reqs)
	if err != nil {
		return nil, err
	}
	raws := make([][]byte, len(resps))
	for i := range resps {
		if resps[i].Type != want {
			return nil, fmt.Errorf("%w: unexpected response type %d", ErrProtocol, resps[i].Type)
		}
		raws[i] = resps[i].Payload
	}
	return raws, nil
}

// QueryRawMany fetches the results for a group of ranges as one
// pipelined burst — one request frame per query (so the server groups
// them through the multicore serve lanes), all sent in a single vectored
// write. Payloads align with qs, each in EncodeRecords wire form.
func (c *SPClient) QueryRawMany(qs []record.Range) ([][]byte, error) {
	return c.askMany(MsgQuery, qs, MsgResult)
}

// GenerateVTMany fetches the tokens for a group of ranges as one
// pipelined burst; tokens align with qs.
func (c *TEClient) GenerateVTMany(qs []record.Range) ([]digest.Digest, error) {
	raws, err := c.askMany(MsgVTRequest, qs, MsgVT)
	if err != nil {
		return nil, err
	}
	vts := make([]digest.Digest, len(raws))
	for i := range raws {
		if vts[i], err = decodeVT(raws[i]); err != nil {
			return nil, err
		}
	}
	return vts, nil
}

// QueryRawMany fetches the records+VO payloads for a group of ranges as
// one pipelined burst; payloads align with qs.
func (c *TOMClient) QueryRawMany(qs []record.Range) ([][]byte, error) {
	return c.askMany(MsgTOMQuery, qs, MsgTOMResult)
}

// QueryBurst runs a group of verified range queries as one burst: the SP
// and TE each receive the whole group in a single vectored write (served
// as one unit by a burst-mode server), and the results are verified with
// ONE digest-worker dispatch over every payload in the group
// (VerifyEncodedBurst) instead of one fan-out per query. Results align
// with qs; any verification failure rejects the whole burst.
func (v *VerifyingClient) QueryBurst(qs []record.Range) ([][]record.Record, error) {
	type spOut struct {
		raws [][]byte
		err  error
	}
	type teOut struct {
		vts []digest.Digest
		err error
	}
	spCh := make(chan spOut, 1)
	teCh := make(chan teOut, 1)
	go func() {
		raws, err := v.SP.QueryRawMany(qs)
		spCh <- spOut{raws, err}
	}()
	go func() {
		vts, err := v.TE.GenerateVTMany(qs)
		teCh <- teOut{vts, err}
	}()
	sp := <-spCh
	te := <-teCh
	defer releaseAll(sp.raws)
	if sp.err != nil {
		return nil, fmt.Errorf("wire: SP query failed: %w", sp.err)
	}
	if te.err != nil {
		return nil, fmt.Errorf("wire: TE token failed: %w", te.err)
	}
	return verifyRecords(core.NewVerifyPool(v.VerifyWorkers), qs, sp.raws, te.vts)
}

// releaseAll releases every payload in raws.
func releaseAll(raws [][]byte) {
	for _, raw := range raws {
		Release(raw)
	}
}

// verifyRecords is the client's one check-then-decode body: it checks
// EncodeRecords sections against their ranges and tokens straight off the
// wire bytes, in one VerifyEncodedBurst, and decodes only a proven
// result. The records returned are decoded copies; the sections stay the
// caller's, to Release once it is done with them.
func verifyRecords(vp core.VerifyPool, qs []record.Range, secs [][]byte, vts []digest.Digest) ([][]record.Record, error) {
	encs := make([][]byte, len(secs))
	for i, sec := range secs {
		enc, rest, _, err := RecordsView(sec)
		if err != nil {
			return nil, fmt.Errorf("%w: result %d: %v", ErrProtocol, i, err)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes in result %d", ErrProtocol, len(rest), i)
		}
		encs[i] = enc
	}
	if _, err := vp.VerifyEncodedBurst(qs, encs, vts, nil); err != nil {
		return nil, err
	}
	results := make([][]record.Record, len(secs))
	for i, sec := range secs {
		recs, _, err := DecodeRecords(sec)
		if err != nil {
			return nil, fmt.Errorf("%w: result %d: %v", ErrProtocol, i, err)
		}
		results[i] = recs
	}
	return results, nil
}

// OwnerClient is a remote data owner: it keeps the authoritative id→key
// catalog on the client side (the owner maintains no authentication
// structures — the point of SAE) and pushes update batches to the SP and
// TE so each wire batch commits as ONE group at each party instead of a
// round trip per record.
type OwnerClient struct {
	sp *SPClient
	te *TEClient

	mu     sync.Mutex
	keys   map[record.ID]record.Key
	nextID record.ID
}

// NewOwnerClient wraps connected SP/TE clients as a remote owner. seed
// registers the already-outsourced dataset so deletions can be routed
// and fresh ids never collide.
func NewOwnerClient(sp *SPClient, te *TEClient, seed []record.Record) *OwnerClient {
	oc := &OwnerClient{sp: sp, te: te, keys: make(map[record.ID]record.Key, len(seed)), nextID: 1}
	for i := range seed {
		oc.keys[seed[i].ID] = seed[i].Key
		if seed[i].ID >= oc.nextID {
			oc.nextID = seed[i].ID + 1
		}
	}
	return oc
}

// DialOwner connects a remote owner to its SP and TE endpoints.
func DialOwner(spAddr, teAddr string, seed []record.Record) (*OwnerClient, error) {
	sp, err := DialSP(spAddr)
	if err != nil {
		return nil, err
	}
	te, err := DialTE(teAddr)
	if err != nil {
		sp.Close()
		return nil, err
	}
	return NewOwnerClient(sp, te, seed), nil
}

// Count returns the owner's live record count.
func (oc *OwnerClient) Count() int {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return len(oc.keys)
}

// InsertBatch synthesizes one fresh-id record per key and pushes the
// whole batch to the SP and the TE in one frame each.
func (oc *OwnerClient) InsertBatch(keys []record.Key) ([]record.Record, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	oc.mu.Lock()
	recs := make([]record.Record, len(keys))
	for i, k := range keys {
		recs[i] = record.Synthesize(oc.nextID, k)
		oc.nextID++
	}
	oc.mu.Unlock()
	if err := oc.sp.InsertBatch(recs); err != nil {
		return nil, fmt.Errorf("wire: owner pushing insert batch to SP: %w", err)
	}
	if err := oc.te.InsertBatch(recs); err != nil {
		return nil, fmt.Errorf("wire: owner pushing insert batch to TE: %w", err)
	}
	oc.mu.Lock()
	for i := range recs {
		oc.keys[recs[i].ID] = recs[i].Key
	}
	oc.mu.Unlock()
	return recs, nil
}

// DeleteBatch pushes a whole deletion batch to the SP and the TE in one
// frame each. Unknown ids fail the call before anything is sent.
func (oc *OwnerClient) DeleteBatch(ids []record.ID) error {
	if len(ids) == 0 {
		return nil
	}
	oc.mu.Lock()
	keys := make([]record.Key, len(ids))
	for i, id := range ids {
		k, ok := oc.keys[id]
		if !ok {
			oc.mu.Unlock()
			return fmt.Errorf("wire: owner has no record with id %d", id)
		}
		keys[i] = k
	}
	oc.mu.Unlock()
	if err := oc.sp.DeleteBatch(ids, keys); err != nil {
		return fmt.Errorf("wire: owner pushing delete batch to SP: %w", err)
	}
	if err := oc.te.DeleteBatch(ids, keys); err != nil {
		return fmt.Errorf("wire: owner pushing delete batch to TE: %w", err)
	}
	oc.mu.Lock()
	for _, id := range ids {
		delete(oc.keys, id)
	}
	oc.mu.Unlock()
	return nil
}

// Close closes both party connections.
func (oc *OwnerClient) Close() error {
	err1 := oc.sp.Close()
	err2 := oc.te.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
