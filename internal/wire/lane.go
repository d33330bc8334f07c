package wire

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sae/internal/agg"
	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/record"
)

// Lanes serve the registry's group rows. A connection's read loop drains
// every frame the kernel has already buffered in one read wakeup into a
// burst and hands the burst's group-row requests to one of N serve LANES
// (one per GOMAXPROCS slot); the lane pushes each row's requests through
// the provider as a unit — one lock acquisition, grouped index descents,
// one streaming heap fetch — then writes every response in a single
// vectored write. Connections are assigned to a lane for life (round-robin at
// accept) and each lane runs on one goroutine with its own response
// arena, request contexts and plan scratch, so the hot path's only
// synchronization per burst is one channel handoff and the connection's
// write lock. A burst of one is the per-request path: there is no other.

// laneArenaRetain caps the capacity a lane's response arena may keep
// between bursts, so one huge burst does not pin its high-water mark
// forever.
const laneArenaRetain = 4 << 20

// burstCounters tracks serve-loop activity across every connection of
// every server in the process, for the -pprof/expvar observability
// endpoint. They sit off the per-frame hot path: a few atomic adds per
// burst, never per frame.
var burstCounters struct {
	jobs          atomic.Int64
	groupedFrames atomic.Int64
	soloFrames    atomic.Int64
	fallbacks     atomic.Int64
}

// BurstCounters is a snapshot of process-wide serve-loop activity.
type BurstCounters struct {
	// Jobs is the number of bursts drained off connections (one per read
	// wakeup that produced at least one frame).
	Jobs int64
	// GroupedFrames counts frames answered by a lane's group pass (any
	// n ≥ 1); SoloFrames those answered individually: own-goroutine rows
	// and frames refused at dispatch.
	GroupedFrames int64
	SoloFrames    int64
	// Fallbacks counts rejected groups of n ≥ 2 (a provider error) that
	// re-served as groups of one.
	Fallbacks int64
}

// ReadBurstCounters snapshots the process-wide serve-loop counters.
func ReadBurstCounters() BurstCounters {
	return BurstCounters{
		Jobs:          burstCounters.jobs.Load(),
		GroupedFrames: burstCounters.groupedFrames.Load(),
		SoloFrames:    burstCounters.soloFrames.Load(),
		Fallbacks:     burstCounters.fallbacks.Load(),
	}
}

// laneReq is one dispatched request bound for a lane: a group row's
// decoded range, or the error frame the request already earned at
// dispatch (err set; spec may be nil).
type laneReq struct {
	spec *frameSpec
	id   uint32
	q    record.Range
	err  error
	done bool
}

// connBurst is one drained burst's lane requests plus the attestation
// they were admitted under.
type connBurst struct {
	reqs []laneReq
	si   *ShardInfo
}

// burstJob hands one drained burst to a lane.
type burstJob struct {
	conn *srvConn
	cb   *connBurst
}

// laneSet is the server's fixed pool of serve lanes.
type laneSet struct {
	lanes []*lane
	next  uint32
	mu    sync.Mutex
	wg    sync.WaitGroup
}

func newLaneSet(s *Server) *laneSet {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	ls := &laneSet{lanes: make([]*lane, n)}
	for i := range ls.lanes {
		l := &lane{
			// Two bursts per connection can be in the pipeline; 8 slots
			// let four connections hand off without the reader blocking.
			jobs: make(chan burstJob, 8),
			exec: exec.NewLane(i),
		}
		ls.lanes[i] = l
		ls.wg.Add(1)
		go l.run(s, ls)
	}
	return ls
}

// pick assigns a new connection to a lane round-robin. Assignment is by
// connection, so every group row of a connection is served by one lane.
func (ls *laneSet) pick() *lane {
	ls.mu.Lock()
	l := ls.lanes[ls.next%uint32(len(ls.lanes))]
	ls.next++
	ls.mu.Unlock()
	return l
}

// close drains the lanes. Callers must guarantee no producer is left
// (Server.Close waits for every connection goroutine first).
func (ls *laneSet) close() {
	for _, l := range ls.lanes {
		close(l.jobs)
	}
	ls.wg.Wait()
}

// respPiece is one span of a response payload inside the lane's arena.
type respPiece struct{ off, end int }

// laneResp is one assembled response awaiting its flush. Payload bytes
// are either arena spans (a group row — pieces) or the frame's own payload
// (an own row's answer, an error string).
type laneResp struct {
	Frame
	pieces  [2]respPiece
	npieces int
}

func (r *laneResp) payloadLen() int {
	n := r.Frame.payloadLen()
	for _, p := range r.pieces[:r.npieces] {
		n += p.end - p.off
	}
	return n
}

// laneFlushGrace is how long a lane waits on a peer's socket. A healthy
// peer's socket buffer takes a burst's responses without blocking; one
// that has stopped reading must not hold the lane — and with it every
// other connection the lane serves — so past the grace the lane hands the
// unsent remainder to a goroutine and moves on (see lane.flushJob).
const laneFlushGrace = 2 * time.Millisecond

// flusher gathers assembled responses — headers and payload spans — into
// one net.Buffers, so B responses cost one writev under the connection's
// write lock instead of 2B write syscalls. Lanes keep one for life; an
// own row uses a fresh one.
type flusher struct {
	hdrs []byte // one 9-byte header per response
	iov  net.Buffers
}

// gather returns the wire image of resps. The result aliases f, arena and
// the responses' direct payloads, and net.Buffers.WriteTo consumes the
// value it is called on — hence a copy of the slice header is returned
// and f.iov keeps its backing array.
func (f *flusher) gather(resps []laneResp, arena []byte) net.Buffers {
	need := len(resps) * HeaderSize
	if cap(f.hdrs) < need {
		f.hdrs = make([]byte, 0, need)
	}
	f.hdrs = f.hdrs[:need]
	f.iov = f.iov[:0]
	for i := range resps {
		r := &resps[i]
		hdr := f.hdrs[i*HeaderSize : (i+1)*HeaderSize]
		putHeader(hdr, r.Type, r.ID, r.payloadLen())
		f.iov = append(f.iov, hdr)
		for _, p := range r.pieces[:r.npieces] {
			if p.end > p.off {
				f.iov = append(f.iov, arena[p.off:p.end])
			}
		}
		f.iov = r.appendPayload(f.iov)
	}
	return f.iov
}

// write is the blocking write of the goroutines that may wait on the
// peer: an own row's response, a burst remainder handed off a lane (which
// passes on the write lock it holds).
func (c *srvConn) write(bufs net.Buffers, locked bool) error {
	if !locked {
		c.wmu.Lock()
	}
	_, err := bufs.WriteTo(c.nc)
	c.wmu.Unlock()
	return err
}

// flushJob writes the served burst's responses without letting the peer
// hold the lane: one writev under a short deadline if the write lock is
// free. What that leaves unsent — the socket buffer of a peer that is not
// reading filled up, or an own row is mid-write — is copied off the arena
// and finished on a goroutine that inherits the write lock (a frame cut
// in half must be completed before any other frame), so the connection
// waits for its slow peer alone.
func (l *lane) flushJob(s *Server, job burstJob) {
	c, bufs := job.conn, l.gather(l.resps, l.resp)
	locked := c.wmu.TryLock()
	if locked {
		c.nc.SetWriteDeadline(time.Now().Add(laneFlushGrace))
		_, err := bufs.WriteTo(c.nc)
		// Disarm at once: left to expire, the deadline's timer would wake
		// an idle process once per flush, and it must not outlive the lock.
		c.nc.SetWriteDeadline(time.Time{})
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			c.wmu.Unlock()
			job.finish(s, err)
			return
		}
	}
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	rest := make([]byte, 0, n)
	for _, b := range bufs {
		rest = append(rest, b...)
	}
	go func() { job.finish(s, c.write(net.Buffers{rest}, locked)) }()
}

// finish ends a burst once its responses are written (or the connection
// is dead): the burst buffer goes back to the read loop, which until then
// is the backpressure on a peer that does not read its answers.
func (job burstJob) finish(s *Server, err error) {
	c := job.conn
	c.bufs <- job.cb
	if err != nil {
		s.logf("wire: writing burst responses: %v", err)
		// Unblock the read loop so the connection tears down.
		c.nc.Close()
	}
	c.handlers.Done()
}

// sections lays the per-query record sections of a burst back to back in
// a byte buffer: each section is a 4-byte count slot followed by that
// query's packed records. Sections open lazily as emits arrive (query by
// query, in order), so empty results still get their count slot.
type sections struct {
	start  []int
	counts []int
	hi     int // end of the last section, set by end
}

func (sc *sections) begin(n int) {
	sc.start = sc.start[:0]
	sc.counts = grow(sc.counts, n)
	clear(sc.counts)
}

// openTo ensures sections 0..qi exist.
func (sc *sections) openTo(buf []byte, qi int) []byte {
	for len(sc.start) <= qi {
		sc.start = append(sc.start, len(buf))
		buf = append(buf, 0, 0, 0, 0)
	}
	return buf
}

// emit appends one record of query qi.
func (sc *sections) emit(buf []byte, qi int, r *record.Record) []byte {
	buf = sc.openTo(buf, qi)
	sc.counts[qi]++
	return r.AppendBinary(buf)
}

// end opens every remaining (empty) section and patches the counts.
func (sc *sections) end(buf []byte) []byte {
	buf = sc.openTo(buf, len(sc.counts)-1)
	for qi, at := range sc.start {
		binary.BigEndian.PutUint32(buf[at:at+4], uint32(sc.counts[qi]))
	}
	sc.hi = len(buf)
	return buf
}

// piece returns query qi's [count|records] span; valid after end.
// Sections are contiguous, so one ends where the next begins.
func (sc *sections) piece(qi int) respPiece {
	end := sc.hi
	if qi+1 < len(sc.start) {
		end = sc.start[qi+1]
	}
	return respPiece{off: sc.start[qi], end: end}
}

// grow returns s resized to n elements, reallocating only when it must.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// lane is one serve lane: a single goroutine owning all the scratch one
// burst needs, so steady-state bursts touch no shared allocator or pool.
type lane struct {
	jobs chan burstJob
	exec *exec.Lane

	// response assembly
	resp  []byte // payload arena
	resps []laneResp
	flusher
	sec sections

	// the job being served
	si            *ShardInfo // attestation the burst was admitted under
	grouped, solo int

	// group scratch
	ids  []uint32
	qs   []record.Range
	vts  []digest.Digest
	aggs []agg.Agg
	toks []agg.Token

	// provider-side scratch
	spSc core.BurstScratch
}

func (l *lane) run(s *Server, ls *laneSet) {
	defer ls.wg.Done()
	for job := range l.jobs {
		l.serveJob(s, job)
	}
}

// serveJob answers one burst: dispatch errors get their error frames,
// and the requests of each row present are collected and served as one
// group.
func (l *lane) serveJob(s *Server, job burstJob) {
	if cap(l.resp) > laneArenaRetain {
		l.resp = nil
	}
	l.resp, l.resps = l.resp[:0], l.resps[:0]
	l.si, l.grouped, l.solo = job.cb.si, 0, 0
	reqs := job.cb.reqs
	for i := range reqs {
		switch {
		case reqs[i].done:
		case reqs[i].err != nil:
			l.respondErr(reqs[i].id, reqs[i].err)
		default:
			spec := reqs[i].spec
			l.ids, l.qs = l.ids[:0], l.qs[:0]
			for j := i; j < len(reqs); j++ {
				if r := &reqs[j]; r.spec == spec && r.err == nil {
					r.done = true
					l.ids, l.qs = append(l.ids, r.id), append(l.qs, r.q)
				}
			}
			l.serveGroup(s, spec, l.ids, l.qs)
		}
	}
	burstCounters.groupedFrames.Add(int64(l.grouped))
	burstCounters.soloFrames.Add(int64(l.solo))
	l.flushJob(s, job)
}

// serveGroup serves n ≥ 1 requests of one row as a unit. A rejected
// group may have partially filled the arena and the response list; both
// roll back to their pre-group marks and the group re-serves as groups
// of one, so each request gets exactly the answer — or the error frame —
// it would have got alone.
func (l *lane) serveGroup(s *Server, spec *frameSpec, ids []uint32, qs []record.Range) {
	respMark, respsMark := len(l.resp), len(l.resps)
	err := spec.group(s, l, ids, qs)
	if err == nil {
		l.grouped += len(ids)
		return
	}
	l.resp, l.resps = l.resp[:respMark], l.resps[:respsMark]
	if len(ids) == 1 {
		l.respondErr(ids[0], err)
		return
	}
	burstCounters.fallbacks.Add(1)
	for i := range ids {
		l.serveGroup(s, spec, ids[i:i+1], qs[i:i+1])
	}
}

// respond registers a response whose payload is the given arena spans.
func (l *lane) respond(typ MsgType, id uint32, pieces ...respPiece) {
	r := laneResp{Frame: Frame{Type: typ, ID: id}, npieces: len(pieces)}
	copy(r.pieces[:], pieces)
	l.resps = append(l.resps, checked(r))
}

func (l *lane) respondErr(id uint32, err error) {
	l.solo++
	l.resps = append(l.resps, laneResp{Frame: Frame{Type: MsgErr, ID: id, Payload: []byte(err.Error())}})
}

// reply appends one small payload to the arena and registers it as the
// response to id.
func (l *lane) reply(typ MsgType, id uint32, appendTo func([]byte) []byte) {
	off := len(l.resp)
	l.resp = appendTo(l.resp)
	l.respond(typ, id, respPiece{off: off, end: len(l.resp)})
}

// records runs a streaming serve of n queries, laying each query's
// records into its section of the arena; l.sec.piece(qi) is query qi's
// span afterwards.
func (l *lane) records(n int, serve func(emit func(int, *record.Record) error) error) error {
	l.sec.begin(n)
	err := serve(func(qi int, r *record.Record) error {
		l.resp = l.sec.emit(l.resp, qi, r)
		return nil
	})
	if err != nil {
		return err
	}
	l.resp = l.sec.end(l.resp)
	return nil
}
