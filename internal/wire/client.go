package wire

import (
	"context"
	"fmt"
	"net"
	"sync"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/record"
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

	mu sync.Mutex // guards everything below
	// pending maps an in-flight request id to its group's channel, which
	// has room for one frame per id of the group: whoever deletes an id —
	// the demux loop, fail, or an abandoning group — sends for it at most
	// once, so no send ever blocks.
	pending map[uint32]chan Frame
	nextID  uint32
	sent    int64
	receivd int64
	err     error // terminal receive-loop error; set once
}

// msgConnLost is never on the wire: fail sends it, tagged with the id, to
// every group still waiting when the connection breaks.
const msgConnLost MsgType = 0

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
// to the group registered under its request id, which owns the payload
// from then on; a frame nobody waits for any more (its request was
// abandoned) goes straight back to the pool. On a receive error every
// waiter is failed and the connection becomes unusable.
func (c *Conn) readLoop() {
	for {
		resp, err := ReadFrame(c.c)
		if err == nil && resp.Type == msgConnLost {
			// A peer cannot send the in-band marker: taken as a real
			// answer it would fail its group while the connection stays up.
			Release(resp.Payload)
			err = fmt.Errorf("%w: frame type 0", ErrProtocol)
		}
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
			ch <- resp // the id's reserved slot; never blocks
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
		ch <- Frame{Type: msgConnLost, ID: id}
	}
	c.mu.Unlock()
}

// exchange is the client's one round trip. It sends fs as one group —
// every id assigned under one registration, every frame in one write
// (writeFrames), so a burst-mode server drains the group in one read
// wakeup and serves it as one unit — and replaces each frame with its
// tagged response, waiting on ctx as well. The first MsgErr fails the
// group as a *ServerError (naming the query's index in a group of more
// than one); a group abandoned by ctx leaves the connection healthy.
// However the group ends early, nothing is left behind: every id
// still pending is deregistered, and every payload received for the group
// — before the failure, or arriving during the cleanup — goes back to the
// pool. On success the caller owns the responses' payloads.
func (c *Conn) exchange(ctx context.Context, fs []Frame) error {
	ch := make(chan Frame, len(fs))
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	first := c.nextID + 1
	for i := range fs {
		c.nextID++
		fs[i].ID = c.nextID
		c.pending[c.nextID] = ch
	}
	c.mu.Unlock()

	c.wmu.Lock()
	n, err := writeFrames(c.c, fs)
	c.wmu.Unlock()
	if err != nil {
		// A failed write may have left a partial frame on the shared
		// stream; nothing sent after it can be framed correctly, so the
		// whole connection is broken, not just this group. fail wakes the
		// wait below.
		c.fail(err)
	} else {
		c.mu.Lock()
		c.sent += int64(n)
		c.mu.Unlock()
	}
	clear(fs) // from here on fs[i] holds response i once it has arrived

	for got := 0; got < len(fs); got++ {
		select {
		case resp := <-ch:
			i := int(resp.ID - first)
			switch resp.Type {
			case msgConnLost:
				if err = c.Err(); err == nil {
					err = fmt.Errorf("wire: connection closed")
				}
			case MsgErr:
				msg := string(resp.Payload)
				if len(fs) > 1 {
					msg = fmt.Sprintf("query %d: %s", i, msg)
				}
				Release(resp.Payload)
				err = &ServerError{Msg: msg}
			default:
				fs[i] = resp
				continue
			}
			got++
		case <-ctx.Done():
			err = fmt.Errorf("wire: request abandoned: %w", ctx.Err())
		}
		c.drop(fs, first, ch, len(fs)-got)
		return err
	}
	return nil
}

// drop cleans up after a group that ended early with outstanding
// responses still owed: it deregisters the ids still pending, takes the
// frames already claimed for the others (delivered, or on their way), and
// releases those and every response the group had received.
func (c *Conn) drop(fs []Frame, first uint32, ch chan Frame, outstanding int) {
	c.mu.Lock()
	for i := range fs {
		if _, ok := c.pending[first+uint32(i)]; ok {
			delete(c.pending, first+uint32(i))
			outstanding--
		}
	}
	c.mu.Unlock()
	for ; outstanding > 0; outstanding-- {
		Release((<-ch).Payload)
	}
	for i := range fs {
		Release(fs[i].Payload)
	}
}

// RoundTripCtx sends one frame and waits for its tagged response: the
// group round trip of one. MsgErr becomes a *ServerError; if ctx expires
// first, the request is abandoned and ctx's error returned, and the
// connection itself stays healthy — a slow response poisons one request,
// not the pipeline. The caller owns the response's payload and may
// Release it once done.
func (c *Conn) RoundTripCtx(ctx context.Context, req Frame) (Frame, error) {
	fs := [1]Frame{req}
	if err := c.exchange(ctx, fs[:]); err != nil {
		return Frame{}, err
	}
	return fs[0], nil
}

// ServerError is an application-level failure the server reported in a
// well-formed MsgErr frame. The distinction matters to the router's
// failover logic: a ServerError came over a healthy connection and would
// recur on any correct upstream (bad range, unknown message), so it is
// returned to the client as-is; every other round-trip error implicates
// the connection and triggers eviction + retry.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "wire: server error: " + e.Msg }

// askMany is the shape of every typed call: a group of request frames
// out, and every response must be the frame type the requests' row
// answers with. Payloads align with reqs and are the caller's.
func (c *Conn) askMany(ctx context.Context, reqs []Frame, want MsgType) ([][]byte, error) {
	if err := c.exchange(ctx, reqs); err != nil {
		return nil, err
	}
	raws := make([][]byte, len(reqs))
	for i := range reqs {
		raws[i] = reqs[i].Payload
		if reqs[i].Type != want {
			for j := range reqs {
				Release(reqs[j].Payload)
			}
			return nil, fmt.Errorf("%w: unexpected response type %d", ErrProtocol, reqs[i].Type)
		}
	}
	return raws, nil
}

// ask is askMany of one.
func (c *Conn) ask(ctx context.Context, typ MsgType, payload []byte, want MsgType) ([]byte, error) {
	raws, err := c.askMany(ctx, []Frame{{Type: typ, Payload: payload}}, want)
	if err != nil {
		return nil, err
	}
	return raws[0], nil
}

// rangeFrames builds one typ request frame per range.
func rangeFrames(typ MsgType, qs []record.Range) []Frame {
	reqs := make([]Frame, len(qs))
	for i, q := range qs {
		reqs[i] = Frame{Type: typ, Payload: EncodeRange(q)}
	}
	return reqs
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

// InsertBatch pushes a whole insertion batch in one frame to any party
// with a write path (SP, TE, primary); the server applies it as one
// commit group. A single insert is a batch of one.
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

// QueryRawMany fetches the results for a group of ranges, one request
// frame per range (so the server groups them through its serve lanes),
// still in wire form: payloads align with qs, each the EncodeRecords
// payload (count + packed canonical records) the verifying client hashes
// in place before ever materializing a record. The payloads are the
// caller's, to Release once done or to drop.
func (c *SPClient) QueryRawMany(ctx context.Context, qs []record.Range) ([][]byte, error) {
	return c.askMany(ctx, rangeFrames(MsgQuery, qs), MsgResult)
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

// GenerateVTMany fetches the verification tokens for a group of ranges;
// tokens align with qs.
func (c *TEClient) GenerateVTMany(ctx context.Context, qs []record.Range) ([]digest.Digest, error) {
	raws, err := c.askMany(ctx, rangeFrames(MsgVTRequest, qs), MsgVT)
	return decodeAll(raws, err, decodeVT)
}

func decodeVT(p []byte) (digest.Digest, error) {
	if len(p) != digest.Size {
		return digest.Zero, fmt.Errorf("%w: malformed token response", ErrProtocol)
	}
	return digest.FromBytes(p), nil
}

// decodeAll decodes a group's fixed-size answers (askMany's results) with
// dec, which copies; the payloads go back to the pool either way.
func decodeAll[T any](raws [][]byte, err error, dec func([]byte) (T, error)) ([]T, error) {
	if err != nil {
		return nil, err
	}
	defer releaseAll(raws)
	out := make([]T, len(raws))
	for i := range raws {
		if out[i], err = dec(raws[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// VerifyingClient performs the full SAE protocol over the network: it
// queries the SP and the TE concurrently (the paper's latency optimization)
// and verifies the result before returning it.
//
// Verification takes the zero-copy fast path: the SP's payload is hashed
// record-by-record where it sits in the received frame (no intermediate
// record materialization, SHA-NI digests, fanned out across the default
// crypto pool) and only then decoded for the caller.
type VerifyingClient struct {
	SP *SPClient
	TE *TEClient
}

// clientVerify is every client's verification pool: the default crypto
// pool size (digest.DefaultWorkers).
var clientVerify = core.NewVerifyPool(0)

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

// fetch is the client's one SP‖TE body: it sends a group of range
// queries to the SP and to the TE at the same time — "the client sends
// the query to both the TE and the SP simultaneously" — each leg as one
// group on its connection, and returns the raw record sections and the
// tokens once both are in. Whatever the SP leg returned is returned even
// when the TE leg failed, so the caller can release it.
func fetch(v *VerifyingClient, qs []record.Range) ([][]byte, []digest.Digest, error) {
	ctx := context.Background()
	var vts []digest.Digest
	var teErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		vts, teErr = v.TE.GenerateVTMany(ctx, qs)
	}()
	raws, spErr := v.SP.QueryRawMany(ctx, qs)
	<-done
	if spErr != nil {
		return raws, vts, fmt.Errorf("wire: SP leg: %w", spErr)
	}
	if teErr != nil {
		return raws, vts, fmt.Errorf("wire: TE leg: %w", teErr)
	}
	return raws, vts, nil
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

// QueryBurst runs a group of verified range queries as one burst: the SP
// and TE each receive the whole group in a single write (served as one
// unit by a burst-mode server), and the results are verified with ONE
// digest-worker dispatch over every payload in the group
// (VerifyEncodedBurst) instead of one fan-out per query. Results align
// with qs; any verification failure rejects the whole burst.
func (v *VerifyingClient) QueryBurst(qs []record.Range) ([][]record.Record, error) {
	raws, vts, err := fetch(v, qs)
	defer releaseAll(raws)
	if err != nil {
		return nil, err
	}
	return verifyRecords(qs, raws, vts)
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
func verifyRecords(qs []record.Range, secs [][]byte, vts []digest.Digest) ([][]record.Record, error) {
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
	if _, err := clientVerify.VerifyEncodedBurst(qs, encs, vts, nil); err != nil {
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
