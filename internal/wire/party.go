package wire

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sae/internal/core"
	"sae/internal/exec"
	"sae/internal/record"
	"sae/internal/replica"
	"sae/internal/wal"
)

// party is what a server answers with: nothing but the set of
// capabilities its role has. A nil field is a capability the role lacks,
// and a frame that needs it is refused with CannotHandle. The four roles
// are the four ways the constructors below fill it in.
type party struct {
	role string // names the role in CannotHandle errors

	// sp and te are getters because a replica swaps its pair wholesale
	// when it re-bootstraps from a snapshot.
	sp    func() *core.ServiceProvider // capSP
	te    func() *core.TrustedEntity   // capTE
	apply func(ops []wal.Op) error     // capApply: one commit group per call
	view  core.View                    // capView
	hub   *replica.Hub                 // capHub
	lc    *lifecycle                   // capLifecycle

	custom Handler // replaces the registry wholesale (Serve)
}

func (p *party) has(c capability) bool {
	switch c {
	case capShardMap:
		return true
	case capSP:
		return p.sp != nil
	case capTE:
		return p.te != nil
	case capApply:
		return p.apply != nil
	case capView:
		return p.view != nil
	case capHub:
		return p.hub != nil
	case capLifecycle:
		return p.lc != nil
	}
	return false
}

// customRow is the row every frame of a custom-Handler server takes.
var customRow = frameSpec{own: func(s *Server, req Frame, rb *RespBuf) Frame { return s.party.custom(req, rb) }}

// admit resolves a frame type to the row that serves it for this party,
// or to the error frame it earns instead: a type the registry does not
// know or the role has no capability for, or client traffic the reshard
// lifecycle currently refuses.
func (p *party) admit(t MsgType) (*frameSpec, error) {
	if p.custom != nil {
		return &customRow, nil
	}
	if int(t) >= len(frameRegistry) || !p.has(frameRegistry[t].need) {
		return nil, CannotHandle(p.role, t)
	}
	if p.lc != nil {
		if err := p.lc.gate(t); err != nil {
			return nil, err
		}
	}
	return &frameRegistry[t], nil
}

// SPServer exposes an SAE service provider over TCP: queries, aggregates
// and owner updates.
type SPServer struct{ *Server }

// ServeSP starts an SP server on addr (use "127.0.0.1:0" for tests).
func ServeSP(addr string, sp *core.ServiceProvider, logf func(string, ...any), opts ...ServerOption) (*SPServer, error) {
	s, err := serve(addr, party{
		role: "SP",
		sp:   func() *core.ServiceProvider { return sp },
		// The whole wire batch is one commit group: one lock acquisition,
		// one structure pass. (Stand-alone parties apply writes directly;
		// only a primary routes them through the group-commit pipeline.)
		apply: func(ops []wal.Op) error { return sp.ApplyBatchCtx(exec.NewContext(), ops) },
	}, logf, opts)
	return &SPServer{s}, err
}

// TEServer exposes a trusted entity over TCP: token requests and owner
// updates.
type TEServer struct{ *Server }

// ServeTE starts a TE server on addr.
func ServeTE(addr string, te *core.TrustedEntity, logf func(string, ...any), opts ...ServerOption) (*TEServer, error) {
	s, err := serve(addr, party{
		role: "TE",
		te:   func() *core.TrustedEntity { return te },
		// One group: one lock, one digest dispatch for the whole batch.
		apply: func(ops []wal.Op) error { return te.ApplyBatchCtx(exec.NewContext(), ops) },
	}, logf, opts)
	return &TEServer{s}, err
}

// PrimaryServer exposes a whole durable shard — SP reads, TE tokens,
// owner writes through the group-commit pipeline, verified (stamped)
// queries, the replication endpoints replicas bootstrap and tail from,
// and the reshard lifecycle (see lifecycle) — on ONE address.
type PrimaryServer struct{ *Server }

// ServePrimary starts a primary server on addr. hub must be attached to
// ds's committer (replica.Attach); it supplies the snapshot and
// group-retention halves of the replication protocol.
func ServePrimary(addr string, ds *core.DurableSystem, hub *replica.Hub, logf func(string, ...any), opts ...ServerOption) (*PrimaryServer, error) {
	lc := &lifecycle{ds: ds}
	s, err := serve(addr, party{
		role:  "primary",
		sp:    func() *core.ServiceProvider { return ds.SP },
		te:    func() *core.TrustedEntity { return ds.TE },
		apply: lc.commitOps,
		view:  ds.View(),
		hub:   hub,
		lc:    lc,
	}, logf, opts)
	return &PrimaryServer{s}, err
}

// SetWarming marks (or clears) the warming state: a reshard target is
// created warming and flipped live by the coordinator at cutover.
func (s *PrimaryServer) SetWarming(on bool) { s.party.lc.warming.Store(on) }

// Retire permanently fences the shard off from clients — its span now
// lives elsewhere. Replication pulls keep working so a straggling target
// can still drain the final groups.
func (s *PrimaryServer) Retire() { s.party.lc.retire() }

// ReplicaServer exposes one read replica on one address: SP reads, TE
// tokens, verified (stamped) queries and the generation stamp. It has no
// write path — replicas advance only by tailing their primary's commit
// groups — so update frames are refused like any frame the role lacks.
type ReplicaServer struct{ *Server }

// ServeReplica starts a replica server on addr.
func ServeReplica(addr string, rep *replica.Replica, logf func(string, ...any), opts ...ServerOption) (*ReplicaServer, error) {
	s, err := serve(addr, party{role: "replica", sp: rep.SP, te: rep.TE, view: rep.View()}, logf, opts)
	return &ReplicaServer{s}, err
}

// freezeWaitMax bounds how long a wire-submitted write blocks behind a
// freeze before failing back to the caller; a freeze that outlives it is
// a stuck reshard, and surfacing the error beats hanging the connection.
const freezeWaitMax = 5 * time.Second

// lifecycle is a primary's reshard state machine: warming (a
// freshly-bootstrapped reshard target refuses client traffic until the
// coordinator activates it at cutover, so it never attests data it has
// not caught up to), frozen (writes block while the coordinator drains
// the final commit group; auto-thaws on TTL), and retired (the span has
// been migrated away — writes and client reads are permanently refused
// while replication pulls keep serving stragglers).
type lifecycle struct {
	ds *core.DurableSystem

	mu        sync.Mutex
	frozen    bool
	thawCh    chan struct{} // non-nil while frozen; closed on thaw
	thawTimer *time.Timer
	warming   atomic.Bool
	retired   atomic.Bool
}

// ShardRetired is the text every refusal of a retired shard carries. It
// crosses the wire inside error frames, so the router matches on it to
// tell "this shard's span has moved" from every other upstream error.
const ShardRetired = "shard retired after reshard"

// gate enforces the lifecycle on inbound frames. Control frames, the
// generation stamp, the shard map and the replication endpoints always
// pass (the coordinator and draining stragglers need them in every
// state); client reads and writes are refused while warming or retired.
func (lc *lifecycle) gate(t MsgType) error {
	switch t {
	case MsgPlanUpdate, MsgFreeze, MsgThaw, MsgRetire,
		MsgGenStampReq, MsgShardMapReq, MsgReplicaSnapReq, MsgReplicaPull:
		return nil
	}
	if lc.retired.Load() {
		return fmt.Errorf("%w: %s; refresh the plan and re-route", ErrProtocol, ShardRetired)
	}
	if lc.warming.Load() {
		return fmt.Errorf("%w: reshard target still warming; not yet serving clients", ErrProtocol)
	}
	return nil
}

// retire fences the shard. A frozen server is thawed first so blocked
// writers fail out instead of hanging until the TTL.
func (lc *lifecycle) retire() {
	lc.retired.Store(true)
	lc.thaw()
}

// freeze blocks new write commits until thawed or until ttl expires —
// the auto-thaw is the liveness backstop against a coordinator that dies
// holding the freeze.
func (lc *lifecycle) freeze(ttl time.Duration) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if !lc.frozen {
		lc.frozen = true
		lc.thawCh = make(chan struct{})
	}
	if lc.thawTimer != nil {
		lc.thawTimer.Stop()
	}
	if ttl > 0 {
		lc.thawTimer = time.AfterFunc(ttl, lc.thaw)
	}
}

func (lc *lifecycle) thaw() {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.frozen {
		lc.frozen = false
		close(lc.thawCh)
		lc.thawCh = nil
	}
	if lc.thawTimer != nil {
		lc.thawTimer.Stop()
		lc.thawTimer = nil
	}
}

// waitThaw blocks the calling writer while the shard is frozen. Writers
// block rather than error so the freeze window is invisible to clients —
// the write completes (against the successor topology's surviving
// primary, or against this one after a thaw) instead of surfacing a
// transient failure during cutover.
func (lc *lifecycle) waitThaw() error {
	lc.mu.Lock()
	ch := lc.thawCh
	lc.mu.Unlock()
	if ch == nil {
		return nil
	}
	select {
	case <-ch:
		return nil
	case <-time.After(freezeWaitMax):
		return fmt.Errorf("%w: write blocked %v behind a frozen shard", ErrProtocol, freezeWaitMax)
	}
}

// commitOps is a primary's write path: wire-submitted writes go through
// the group-commit pipeline — admitted against the SP's catalog, durable,
// generation-stamped, observed by the replication hub. It blocks until
// the group's fsync, which is why write frames are own rows.
func (lc *lifecycle) commitOps(ops []wal.Op) error {
	if err := lc.waitThaw(); err != nil {
		return err
	}
	if lc.retired.Load() {
		return fmt.Errorf("%w: %s; write to the new topology", ErrProtocol, ShardRetired)
	}
	return lc.ds.Committer().SubmitOps(ops)
}

// checkSpan refuses a range that escapes the server's own shard span. A
// router must clamp sub-queries to shard spans, so a range that reaches
// past the span means a confused (or malicious) router is trying to make
// one shard attest keys another shard owns — the seam-suppression attack
// this check closes. A stand-alone server (nil or single-shard plan) owns
// the whole domain.
func (si *ShardInfo) checkSpan(q record.Range) error {
	if si == nil || si.Plan.Shards() <= 1 {
		return nil
	}
	if span := si.Plan.Span(si.Index); q.Lo < span.Lo || q.Hi > span.Hi {
		return fmt.Errorf("%w: verified query [%d,%d] escapes shard %d's span [%d,%d]",
			ErrProtocol, q.Lo, q.Hi, si.Index, span.Lo, span.Hi)
	}
	return nil
}

// --- group rows: n ≥ 1 ranges of one frame type, served on a lane ---

// serveQuery pushes MsgQuery ranges through the SP as one unit
// (core.ServiceProvider.ServeBurstCtx: one read-lock, grouped B+-tree
// descents, one streaming heap fetch); each query's records are copied
// straight from their heap pages' bytes into the lane's response arena,
// one copy per page run — the only copy between the heap file and the
// socket.
func serveQuery(s *Server, l *lane, ids []uint32, qs []record.Range) error {
	err := l.records(len(qs), func() error {
		return s.party.sp().ServeBurstCtx(l.exec.Contexts(len(qs)), qs, &l.spSc, l.emit)
	})
	if err != nil {
		return err
	}
	for qi, id := range ids {
		l.respond(MsgResult, id, l.sec.piece(qi))
	}
	return nil
}

// serveVT answers MsgVTRequest ranges with one read-lock acquisition over
// the XB-Tree, every descent charged to its own pooled context.
func serveVT(s *Server, l *lane, ids []uint32, qs []record.Range) error {
	l.vts = grow(l.vts, len(qs))
	if err := s.party.te().GenerateVTBurst(l.exec.Contexts(len(qs)), qs, l.vts); err != nil {
		return err
	}
	for qi, id := range ids {
		vt := &l.vts[qi]
		l.reply(MsgVT, id, func(b []byte) []byte { return append(b, vt[:]...) })
	}
	return nil
}

// serveAggQuery answers MsgAggQuery ranges with ONE read-lock pass over
// the annotated B+-tree: a canonical-cover descent per query, no heap
// access, a constant 24-byte scalar each.
func serveAggQuery(s *Server, l *lane, ids []uint32, qs []record.Range) error {
	l.aggs = grow(l.aggs, len(qs))
	if err := s.party.sp().AggregateBurst(l.exec.Contexts(len(qs)), qs, l.aggs); err != nil {
		return err
	}
	for qi, id := range ids {
		l.reply(MsgAggResult, id, l.aggs[qi].AppendTo)
	}
	return nil
}

// serveAggToken answers MsgAggTokenReq ranges with one read-lock pass
// over the annotated XB-Tree; a 44-byte range-bound token each.
func serveAggToken(s *Server, l *lane, ids []uint32, qs []record.Range) error {
	l.toks = grow(l.toks, len(qs))
	if err := s.party.te().AggTokenBurst(l.exec.Contexts(len(qs)), qs, l.toks); err != nil {
		return err
	}
	for qi, id := range ids {
		l.reply(MsgAggToken, id, l.toks[qi].AppendTo)
	}
	return nil
}

// serveVerified answers MsgVerifiedQuery ranges atomically at ONE commit
// boundary (core.View.ServeBurst): every response is (epoch, gen, VT,
// records), all from the same generation. The epoch is that of the plan
// the burst was admitted (and span-checked) under, so every verified
// answer names the topology it was served under.
func serveVerified(s *Server, l *lane, ids []uint32, qs []record.Range) error {
	l.vts = grow(l.vts, len(qs))
	var seq uint64
	err := l.records(len(qs), func() (err error) {
		seq, err = s.party.view.ServeBurst(l.exec.Contexts(len(qs)), qs, &l.spSc, l.vts, l.emit)
		return err
	})
	if err != nil {
		return err
	}
	var epoch uint64
	if l.si != nil {
		epoch = l.si.Plan.Epoch()
	}
	for qi, id := range ids {
		off := len(l.resp)
		l.resp = binary.BigEndian.AppendUint64(l.resp, epoch)
		l.resp = binary.BigEndian.AppendUint64(l.resp, seq)
		l.resp = append(l.resp, l.vts[qi][:]...)
		l.respond(MsgVerifiedResult, id, respPiece{off: off, end: len(l.resp)}, l.sec.piece(qi))
	}
	return nil
}

// serveVerifiedAgg answers MsgVerifiedAgg ranges at ONE commit boundary
// (core.View.AggregateBurst): each response is the scalar and the token
// that checks it, both from the same generation, so an honest answer
// cannot tear across a commit.
func serveVerifiedAgg(s *Server, l *lane, ids []uint32, qs []record.Range) error {
	l.aggs, l.toks = grow(l.aggs, len(qs)), grow(l.toks, len(qs))
	if err := s.party.view.AggregateBurst(l.exec.Contexts(len(qs)), qs, &l.spSc, l.aggs, l.toks); err != nil {
		return err
	}
	for qi, id := range ids {
		off := len(l.resp)
		l.resp = l.toks[qi].AppendTo(l.aggs[qi].AppendTo(l.resp))
		l.respond(MsgVerifiedAggResult, id, respPiece{off: off, end: len(l.resp)})
	}
	return nil
}

// --- own rows: one frame, its own goroutine ---

// serveWrite decodes an update frame into one commit group's ops and
// hands it to the party's write path. The frame's payload is the
// server's (dispatch took it from the receive pool) and goes back once
// decoded; the ops come from opsPool and go back once the write path
// returns, which for a primary is after the group's ack — the committer
// keeps nothing of them.
func serveWrite(s *Server, req Frame, _ *RespBuf) Frame {
	buf := opsPool.Get().(*[]wal.Op)
	ops, err := decodeOps(req, (*buf)[:0])
	Release(req.Payload)
	if err == nil {
		err = s.party.apply(ops)
	}
	if cap(ops) <= opsRetain {
		*buf = ops
		opsPool.Put(buf)
	}
	if err != nil {
		return errFrame(err)
	}
	return Frame{Type: MsgAck}
}

// opsPool recycles the op slices write frames are decoded into.
var opsPool = sync.Pool{New: func() any { return new([]wal.Op) }}

// opsRetain caps, in ops, the slice a decoded write frame may return to
// opsPool; an owner's batch is typically 16.
const opsRetain = 1024

// decodeOps decodes an update frame's payload into ops, appending to
// ops.
func decodeOps(req Frame, ops []wal.Op) ([]wal.Op, error) {
	if req.Type == MsgBatchInsert {
		return DecodeInserts(req.Payload, ops)
	}
	return DecodeDeletes(req.Payload, ops) // MsgBatchDelete
}

// attestation is the server's shard index and plan; unset means "shard 0
// of the single-shard plan".
func (s *Server) attestation() ShardInfo {
	if si := s.shardInfo.Load(); si != nil {
		return *si
	}
	return ShardInfo{}
}

func serveShardMap(s *Server, _ Frame, _ *RespBuf) Frame {
	return Frame{Type: MsgShardMap, Payload: EncodeShardInfo(s.attestation())}
}

func serveGenStamp(s *Server, _ Frame, rb *RespBuf) Frame {
	if err := s.party.view(func(seq uint64, _ *core.ServiceProvider, _ *core.TrustedEntity) error {
		rb.AppendUint64(seq)
		return nil
	}); err != nil {
		return errFrame(err)
	}
	return Frame{Type: MsgGenStamp, Payload: rb.b}
}

// serveReplicaSnap ships the whole shard — attestation plus a
// sequence-stamped record dump cut at a commit boundary, the
// checkpoint's bytes served from the primary's heap pages.
func serveReplicaSnap(s *Server, _ Frame, rb *RespBuf) Frame {
	sib := EncodeShardInfo(s.attestation())
	rb.AppendUint32(uint32(len(sib)))
	rb.Append(sib)
	if err := s.party.hub.WriteSnapshot(rb); err != nil {
		return errFrame(err)
	}
	return Frame{Type: MsgReplicaSnap, Payload: rb.b}
}

// serveReplicaPull copies the retained groups' WAL frames out of the
// hub straight behind the flags byte.
func serveReplicaPull(s *Server, req Frame, rb *RespBuf) Frame {
	after, max, err := DecodeReplicaPull(req.Payload)
	if err != nil {
		return errFrame(err)
	}
	rb.b = append(rb.b, 0)
	var snapshotNeeded bool
	rb.b, snapshotNeeded, _ = s.party.hub.AppendSince(rb.b, after, max)
	if snapshotNeeded {
		rb.b[0] = replicaFlagSnapshotNeeded
	}
	return Frame{Type: MsgReplicaGroups, Payload: rb.b}
}

func servePlanUpdate(s *Server, req Frame, _ *RespBuf) Frame {
	si, err := DecodeShardInfo(req.Payload)
	if err == nil {
		err = s.AdoptPlan(si)
	}
	if err != nil {
		return errFrame(err)
	}
	return Frame{Type: MsgAck}
}

// serveFreeze acks only after every in-flight commit group has drained:
// once the coordinator sees the ack, the WAL stream is complete and
// final.
func serveFreeze(s *Server, req Frame, _ *RespBuf) Frame {
	ttl, err := DecodeFreeze(req.Payload)
	if err != nil {
		return errFrame(err)
	}
	s.party.lc.freeze(ttl)
	s.party.lc.ds.Committer().Quiesce()
	return Frame{Type: MsgAck}
}

func serveThaw(s *Server, _ Frame, _ *RespBuf) Frame {
	s.party.lc.thaw()
	return Frame{Type: MsgAck}
}

func serveRetire(s *Server, _ Frame, _ *RespBuf) Frame {
	s.party.lc.retire()
	return Frame{Type: MsgAck}
}
