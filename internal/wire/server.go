package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
)

// Handler maps one request frame to one response frame. rb is a pooled
// response payload buffer the handler may (but need not) encode into:
// returning a Frame whose Payload aliases rb.b is safe because the buffer
// is recycled only after the frame has been written to the socket.
type Handler func(req Frame, rb *RespBuf) Frame

// RespBuf is one pooled response payload buffer. Before pooling, every
// response frame allocated its payload — for record-heavy results that
// was the server write path's dominant allocation. Besides its own bytes
// it can carry spans BY REFERENCE (AppendRef) — how the router relays the
// record sections of its upstreams' answers without copying them — and it
// can take over received payloads (Hold), which it releases when its own
// flight ends.
type RespBuf struct {
	b    []byte
	refs []payloadRef
	held [][]byte
	out  flusher // the own row's write scratch, pooled with the buffer
}

// respBufRetain caps the capacity a recycled buffer may keep. The
// occasional multi-megabyte response should not pin its buffer in the
// pool forever.
const respBufRetain = 4 << 20

var respBufPool = sync.Pool{New: func() any { return new(RespBuf) }}

func getRespBuf() *RespBuf { return respBufPool.Get().(*RespBuf) }

func putRespBuf(rb *RespBuf) {
	rb.Reset()
	if cap(rb.b) <= respBufRetain {
		respBufPool.Put(rb)
	}
}

// Reset discards what has been encoded so far and releases the held
// payloads; a Handler that retries starts its second attempt from an
// empty payload.
func (rb *RespBuf) Reset() {
	for _, p := range rb.held {
		Release(p)
	}
	clear(rb.held) // a pooled buffer must not pin what it let go of
	clear(rb.refs)
	rb.b, rb.refs, rb.held = rb.b[:0], rb.refs[:0], rb.held[:0]
}

// Bytes returns the buffer's own bytes (referenced spans are not among
// them; a Handler that used AppendRef answers with Frame). The slice
// aliases the pooled buffer: it is valid until the returned response frame
// has been written to the socket, exactly the lifetime a Handler's
// response needs.
func (rb *RespBuf) Bytes() []byte { return rb.b }

// Frame returns the response frame of type typ whose payload is everything
// encoded into the buffer: its own bytes with the referenced spans in
// place. It is valid for as long as Bytes is.
func (rb *RespBuf) Frame(typ MsgType) Frame {
	return Frame{Type: typ, Payload: rb.b, refs: rb.refs}
}

// Append appends raw bytes to the payload.
func (rb *RespBuf) Append(p []byte) { rb.b = append(rb.b, p...) }

// Write appends p to the payload: RespBuf is an io.Writer.
func (rb *RespBuf) Write(p []byte) (int, error) {
	rb.Append(p)
	return len(p), nil
}

// AppendRef appends p to the payload by reference: the bytes are not
// copied, the response's vectored write reads them where they are. p must
// stay untouched until the response is on the socket — which Hold
// guarantees for the payload p was cut from.
func (rb *RespBuf) AppendRef(p []byte) {
	if len(p) > 0 {
		rb.refs = append(rb.refs, payloadRef{at: len(rb.b), p: p})
	}
}

// Hold hands the buffer a received payload the Handler owns: it is
// released (see Release) when the buffer is reset or recycled — for a
// response, after its frame is on the socket.
func (rb *RespBuf) Hold(p []byte) { rb.held = append(rb.held, p) }

// AppendUint32 appends a big-endian uint32 to the payload.
func (rb *RespBuf) AppendUint32(v uint32) {
	rb.b = binary.BigEndian.AppendUint32(rb.b, v)
}

// AppendUint64 appends a big-endian uint64 to the payload.
func (rb *RespBuf) AppendUint64(v uint64) {
	rb.b = binary.BigEndian.AppendUint64(rb.b, v)
}

// maxInFlight bounds the own-goroutine requests one connection may have
// executing at once; further frames queue in the kernel's socket buffer.
// The providers serve under their own locks, so the bound only caps
// goroutines, not correctness.
const maxInFlight = 32

// maxBurst caps the lane requests one burst may carry; further buffered
// frames form the next burst. 64 is past the point where per-burst
// overheads are amortized away, and keeps a lane's arena and request
// contexts bounded.
const maxBurst = 64

// burstReadBuf is the connection read-buffer size frames are drained
// from; frames larger than this still work (they read through the
// buffer).
const burstReadBuf = 64 << 10

// Server is the one party server: a TCP accept loop, one read loop per
// connection that dispatches every request frame through the frame
// registry, a lane per GOMAXPROCS slot serving the registry's group rows,
// and a goroutine per in-flight own row. What it answers is decided
// entirely by its party — the set of capabilities the role has — or, for
// Serve, by a custom Handler (the router tier).
type Server struct {
	ln    net.Listener
	party party
	logf  func(string, ...any)

	// shardInfo is this server's place in a sharded deployment; unset
	// means "shard 0 of the single-shard plan" so stand-alone servers
	// answer shard-map requests uniformly.
	shardInfo atomic.Pointer[ShardInfo]

	// lanes serve the group rows; nil for a custom Handler, whose every
	// frame is an own row.
	lanes *laneSet

	mu        sync.Mutex
	conns     map[net.Conn]struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup
}

// ServerOption configures a server before it starts accepting
// connections.
type ServerOption func(*Server)

// WithShardInfo declares the server's shard index and partition plan at
// construction, before the listener accepts its first connection — a
// client that dials the moment the port opens already sees the right
// attestation.
func WithShardInfo(si ShardInfo) ServerOption {
	return func(s *Server) { s.shardInfo.Store(&si) }
}

// SetShardInfo declares this server's shard index and partition plan,
// served in response to MsgShardMapReq. Safe to call while serving, but
// deployments should prefer WithShardInfo so no early client can observe
// the default single-shard attestation.
func (s *Server) SetShardInfo(si ShardInfo) {
	s.shardInfo.Store(&si)
}

// AdoptPlan installs a new shard attestation. Only a strictly higher
// epoch is accepted: a replayed MsgPlanUpdate carrying an older topology
// cannot roll the server back.
func (s *Server) AdoptPlan(si ShardInfo) error {
	var curEpoch uint64
	if cur := s.shardInfo.Load(); cur != nil {
		curEpoch = cur.Plan.Epoch()
	}
	if si.Plan.Epoch() <= curEpoch {
		return fmt.Errorf("%w: plan update at epoch %d rejected; already at epoch %d",
			ErrProtocol, si.Plan.Epoch(), curEpoch)
	}
	s.SetShardInfo(si)
	return nil
}

// serve starts a server for p on addr: the listener, the lanes (a party
// with group rows needs them; a custom Handler does not) and the accept
// loop, in that order, so no connection is accepted into a half-wired
// server.
func serve(addr string, p party, logf func(string, ...any), opts []ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listening on %s: %w", addr, err)
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	s := &Server{
		ln:    ln,
		party: p,
		logf:  logf,
		conns: make(map[net.Conn]struct{}),
		done:  make(chan struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	if p.custom == nil {
		s.lanes = newLaneSet(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Serve starts a TCP server running a custom Handler — the hook the
// router tier builds its client-facing endpoint on (and tests build fake
// upstreams with). Every frame is an own row: the handler runs once per
// request frame, concurrently across the requests in flight on a
// connection (a router's requests block on upstream round trips); the
// RespBuf it receives is pooled and recycled after its response frame
// hits the socket.
func Serve(addr string, handle Handler, logf func(string, ...any), opts ...ServerOption) (*Server, error) {
	return serve(addr, party{role: "custom handler", custom: handle}, logf, opts)
}

// ErrFrame builds the error response for a request a Handler cannot
// serve, mirroring what the built-in party servers send.
func ErrFrame(err error) Frame { return errFrame(err) }

func errFrame(err error) Frame {
	return Frame{Type: MsgErr, Payload: []byte(err.Error())}
}

// Addr returns the server's bound address (useful with ":0" listeners).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes live connections and waits for the serving
// goroutines to drain. It is idempotent: deployment teardown paths often
// race an explicit shutdown against a deferred one.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.done)
		s.closeErr = s.ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		if s.lanes != nil {
			s.lanes.close()
		}
	})
	return s.closeErr
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				s.logf("wire: accept: %v", err)
				return
			}
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.connLoop(conn)
	}
}

// srvConn is one served connection. Its lane (assigned for life at
// accept) and its own-row goroutines all answer on it, so every write —
// a lane's vectored flush or one own-row response — takes wmu once.
type srvConn struct {
	nc   net.Conn
	lane *lane
	wmu  sync.Mutex

	// bufs double-buffers the bursts: the read loop fills one while the
	// lane serves the other, and the channel is the backpressure — a
	// connection has at most two bursts in the pipeline.
	bufs chan *connBurst
	sem  chan struct{} // bounds own rows in flight (maxInFlight)
	// handlers counts the answers still owed: own rows in flight and
	// bursts not yet flushed. The connection closes after the last one.
	handlers sync.WaitGroup
	rng      [8]byte // a group row's payload: one encoded range
}

// connLoop is the one connection read loop. It blocks for the first frame
// of a burst, takes the server's attestation once that frame's header is
// in, then drains every frame the read buffer ALREADY holds completely
// without further syscalls, up to maxBurst lane requests. The kernel's socket buffer coalesces pipelined
// client writes, so a busy connection naturally produces multi-frame
// bursts and an idle one degrades to bursts of one with one extra
// Buffered() check. Each frame is dispatched as it is read (see
// dispatch); the burst's group-row requests then go to the lane as one
// job.
func (s *Server) connLoop(nc net.Conn) {
	defer s.wg.Done()
	c := &srvConn{nc: nc, bufs: make(chan *connBurst, 2), sem: make(chan struct{}, maxInFlight)}
	if s.lanes != nil {
		c.lane = s.lanes.pick()
	}
	c.bufs <- &connBurst{}
	c.bufs <- &connBurst{}
	defer func() {
		c.handlers.Wait()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		nc.Close()
	}()
	br := bufio.NewReaderSize(nc, burstReadBuf)
	for {
		cb := <-c.bufs
		cb.reqs = cb.reqs[:0]
		// Wait for the burst's first header BEFORE taking the attestation:
		// loaded ahead of the blocking read it would be as old as the
		// connection's idle time, and an idle connection would answer its
		// next burst under a plan AdoptPlan has since replaced.
		if _, err := br.Peek(HeaderSize); err != nil {
			s.logReadErr(err)
			return
		}
		// One attestation per burst: the span check in dispatch and the
		// epoch the lane stamps on the answers come from the same plan.
		cb.si = s.shardInfo.Load()
		own := 0
		for first := true; first || (len(cb.reqs) < maxBurst && frameBuffered(br)); first = false {
			isOwn, err := s.dispatch(c, br, cb)
			if err != nil {
				s.logReadErr(err)
				return
			}
			if isOwn {
				own++
			}
		}
		burstCounters.jobs.Add(1)
		burstCounters.soloFrames.Add(int64(own))
		if len(cb.reqs) == 0 {
			c.bufs <- cb
			continue
		}
		c.handlers.Add(1) // until the burst's responses are flushed
		c.lane.jobs <- burstJob{conn: c, cb: cb}
	}
}

// logReadErr reports a dead or misframed connection; a peer hanging up
// between requests is not worth a line.
func (s *Server) logReadErr(err error) {
	if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
		s.logf("wire: reading request: %v", err)
	}
}

// frameBuffered reports whether the read buffer already holds one whole
// frame. (An oversize length prefix can never be "whole"; the next
// blocking dispatch rejects it.)
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < HeaderSize {
		return false
	}
	hdr, _ := br.Peek(HeaderSize)
	return br.Buffered() >= HeaderSize+int(binary.BigEndian.Uint32(hdr[5:9]))
}

// dispatch reads one request frame and routes it — the ONE place request
// frames come off a server connection, and where every per-frame safety
// check runs before any grouping: the payload limit, the registry lookup
// and capability check, the reshard lifecycle gate, and for group rows
// the range decode and shard-span check. A frame that fails a check gets
// its own error frame (queued on the burst so the lane stays the writer);
// a group row's range joins the burst; an own row starts its goroutine,
// bounded by the connection's semaphore, with a payload from the receive
// pool that the row owns (serveWrite releases a write's once decoded;
// the others leave theirs to the collector). The returned error is a
// dead or misframed connection.
func (s *Server) dispatch(c *srvConn, br *bufio.Reader, cb *connBurst) (own bool, err error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return false, err // io.EOF passes through for clean shutdown
	}
	typ, id, n := MsgType(hdr[0]), binary.BigEndian.Uint32(hdr[1:5]), int(binary.BigEndian.Uint32(hdr[5:9]))
	if n > MaxPayload {
		return false, fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrProtocol, n)
	}
	spec, err := s.party.admit(typ)
	if err != nil {
		if _, derr := br.Discard(n); derr != nil {
			return false, fmt.Errorf("%w: truncated payload: %v", ErrProtocol, derr)
		}
		cb.reqs = append(cb.reqs, laneReq{id: id, err: err})
		return false, nil
	}
	payload := c.rng[:]
	switch {
	case spec.group == nil:
		payload = getPayload(n)
	case n != len(c.rng):
		// A malformed range's payload is read only for DecodeRange to
		// name its length.
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(br, payload); err != nil {
		if spec.group == nil {
			Release(payload)
		}
		return false, fmt.Errorf("%w: truncated payload: %v", ErrProtocol, err)
	}
	if spec.group != nil {
		q, err := DecodeRange(payload)
		if err == nil && spec.span {
			err = cb.si.checkSpan(q)
		}
		cb.reqs = append(cb.reqs, laneReq{spec: spec, id: id, q: q, err: err})
		return false, nil
	}
	c.sem <- struct{}{}
	c.handlers.Add(1)
	go s.serveOwn(c, spec, Frame{Type: typ, ID: id, Payload: payload})
	return true, nil
}

// serveOwn runs one own row to completion and writes its response.
func (s *Server) serveOwn(c *srvConn, spec *frameSpec, req Frame) {
	defer c.handlers.Done()
	defer func() { <-c.sem }()
	rb := getRespBuf()
	resp := spec.own(s, req, rb)
	resp.ID = req.ID
	err := c.write(rb.out.gather([]laneResp{checked(laneResp{Frame: resp})}, nil), false)
	// The frame is on the wire (or the connection is dead); either way
	// the pooled buffer's flight — and that of the payloads it holds — is
	// over.
	putRespBuf(rb)
	if err != nil {
		s.logf("wire: writing response: %v", err)
		// Unblock the read loop so the connection tears down.
		c.nc.Close()
	}
}

// checked is the one admission check on responses: a payload over
// MaxPayload would make the peer's ReadFrame reject the frame and tear
// down the whole pipelined connection, so it degrades to a per-request
// error instead.
func checked(r laneResp) laneResp {
	if n := r.payloadLen(); n > MaxPayload {
		e := errFrame(fmt.Errorf("%w: response of %d bytes exceeds frame limit; narrow the query or split the batch",
			ErrProtocol, n))
		e.ID = r.ID
		return laneResp{Frame: e}
	}
	return r
}

// Logf is a convenience logger adapter for the servers.
func Logf(prefix string) func(string, ...any) {
	return func(format string, args ...any) {
		log.Printf(prefix+": "+format, args...)
	}
}
