package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"sae/internal/core"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/replica"
	"sae/internal/shard"
	"sae/internal/workload"
)

// roles is every built-in role serving ONE dataset, beside the in-process
// parties (never served) whose materializing QueryCtx paths are the
// parity reference.
type roles struct {
	ds  *workload.Dataset
	sys *core.DurableSystem

	refSP *core.ServiceProvider
	refTE *core.TrustedEntity

	servedSP *core.ServiceProvider // the party behind sp (tamper hooks)
	sp       *SPServer
	te       *TEServer
	primary  *PrimaryServer
	replica  *ReplicaServer
}

// addrs lists the servers by role name, in the matrix's column order.
func (r *roles) addrs() []struct{ role, addr string } {
	return []struct{ role, addr string }{
		{"SP", r.sp.Addr()}, {"TE", r.te.Addr()}, {"primary", r.primary.Addr()}, {"replica", r.replica.Addr()},
	}
}

func launchRoles(t *testing.T, n int) *roles {
	t.Helper()
	ds, err := workload.Generate(workload.UNF, n, 55)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	r := &roles{ds: ds}
	newSP := func() *core.ServiceProvider {
		sp := core.NewServiceProvider(pagestore.NewMem())
		if err := sp.Load(ds.Records); err != nil {
			t.Fatalf("sp.Load: %v", err)
		}
		return sp
	}
	newTE := func() *core.TrustedEntity {
		te := core.NewTrustedEntity(pagestore.NewMem())
		if err := te.Load(ds.Records); err != nil {
			t.Fatalf("te.Load: %v", err)
		}
		return te
	}
	r.refSP, r.refTE = newSP(), newTE()
	r.servedSP = newSP()

	if r.sp, err = ServeSP("127.0.0.1:0", r.servedSP, nil); err != nil {
		t.Fatalf("ServeSP: %v", err)
	}
	t.Cleanup(func() { r.sp.Close() })
	if r.te, err = ServeTE("127.0.0.1:0", newTE(), nil); err != nil {
		t.Fatalf("ServeTE: %v", err)
	}
	t.Cleanup(func() { r.te.Close() })

	if r.sys, err = core.OpenDurableSystem(t.TempDir(), ds.Records, 16); err != nil {
		t.Fatalf("opening durable system: %v", err)
	}
	t.Cleanup(func() { r.sys.Close() })
	hub := replica.Attach(r.sys, 0)
	si := ShardInfo{Index: 0, Plan: shard.PlanFor(ds.Records, 1)}
	if r.primary, err = ServePrimary("127.0.0.1:0", r.sys, hub, nil, WithShardInfo(si)); err != nil {
		t.Fatalf("ServePrimary: %v", err)
	}
	t.Cleanup(func() { r.primary.Close() })
	rep, rsi, err := BootstrapReplica(r.primary.Addr())
	if err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	if r.replica, err = ServeReplica("127.0.0.1:0", rep, nil, WithShardInfo(rsi)); err != nil {
		t.Fatalf("ServeReplica: %v", err)
	}
	t.Cleanup(func() { r.replica.Close() })
	return r
}

// groupSizes are the pipelining depths every parity test runs at: a lone
// request (a group of one), the smallest real group, and a full burst.
var groupSizes = []int{1, 2, maxBurst}

// pipeline writes reqs to addr in gather writes of g frames each on one
// raw connection, waiting for each group's responses before the next,
// and returns the response frames in request order — error frames
// included, which the client stubs would turn into a Go error.
func pipeline(t *testing.T, addr string, reqs []Frame, g int) []Frame {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dialing %s: %v", addr, err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	resps := make([]Frame, len(reqs))
	for lo := 0; lo < len(reqs); lo += g {
		hi := min(lo+g, len(reqs))
		var out []byte
		for i := lo; i < hi; i++ {
			out = append(out, byte(reqs[i].Type))
			out = binary.BigEndian.AppendUint32(out, uint32(i))
			out = binary.BigEndian.AppendUint32(out, uint32(len(reqs[i].Payload)))
			out = append(out, reqs[i].Payload...)
		}
		if _, err := nc.Write(out); err != nil {
			t.Fatalf("writing group at %d: %v", lo, err)
		}
		for i := lo; i < hi; i++ {
			f, err := ReadFrame(nc)
			if err != nil {
				t.Fatalf("reading response %d of group at %d: %v", i-lo, lo, err)
			}
			if int(f.ID) < lo || int(f.ID) >= hi {
				t.Fatalf("response id %d outside group [%d,%d)", f.ID, lo, hi)
			}
			resps[f.ID] = f
		}
	}
	return resps
}

// TestRoleFrameMatrix starts each of the four roles and sends every
// request frame in the registry, asserting served-vs-"cannot handle"
// against the golden matrix below. A new frame cannot be silently
// unserved, or served by a role that must not have it (a replica is
// read-only: it must refuse every update frame). The retired numbers are
// refused by every role like any frame it lacks; the retired TOM query
// frames 9 and 24 are checked by name as well.
func TestRoleFrameMatrix(t *testing.T) {
	r := launchRoles(t, 600)
	// Columns: SP, TE, primary, replica.
	golden := map[MsgType][4]bool{
		MsgQuery:          {true, false, true, true},
		MsgVTRequest:      {false, true, true, true},
		MsgShardMapReq:    {true, true, true, true},
		MsgBatchInsert:    {true, true, true, false},
		MsgBatchDelete:    {true, true, true, false},
		MsgAggQuery:       {true, false, true, true},
		MsgAggTokenReq:    {false, true, true, true},
		MsgGenStampReq:    {false, false, true, true},
		MsgReplicaSnapReq: {false, false, true, false},
		MsgReplicaPull:    {false, false, true, false},
		MsgVerifiedQuery:  {false, false, true, true},
		MsgPlanUpdate:     {false, false, true, false},
		MsgFreeze:         {false, false, true, false},
		MsgThaw:           {false, false, true, false},
		MsgRetire:         {false, false, true, false},
		MsgVerifiedAgg:    {false, false, true, true},
	}
	// The retired TOM query frames, with the range payload they carried:
	// every role refuses them by number, before looking at the payload.
	q := EncodeRange(record.Range{Lo: 0, Hi: record.KeyDomain})
	for _, n := range []MsgType{9, 24} {
		for _, srv := range r.addrs() {
			resp := pipeline(t, srv.addr, []Frame{{Type: n, Payload: q}}, 1)[0]
			want := CannotHandle(srv.role, n).Error()
			if resp.Type != MsgErr || string(resp.Payload) != want {
				t.Errorf("%s ← retired frame %d: got %s %.80q, want %q", srv.role, n, FrameName(resp.Type), resp.Payload, want)
			}
		}
	}
	// Frames are sent with an empty payload: a role that serves the frame
	// answers with a decode error (or a real answer), a role that lacks it
	// with CannotHandle — before looking at the payload. Frames go out in
	// number order but for Retire, which goes last: it fences the primary
	// only after every client frame has been through it.
	order := make([]MsgType, 0, len(frameRegistry))
	for n := MsgType(1); int(n) < len(frameRegistry); n++ {
		if n != MsgRetire {
			order = append(order, n)
		}
	}
	for _, n := range append(order, MsgRetire) {
		spec := frameRegistry[n]
		want, listed := golden[n]
		if spec.need == capNone {
			// Response frames, the retired numbers, and the cutover only a
			// router's custom Handler answers: every built-in role refuses
			// them.
			if listed {
				t.Errorf("%s is a frame no party serves but the matrix lists it", spec.Name)
			}
			want = [4]bool{}
		} else if !listed {
			t.Errorf("request frame %s (%d) is missing from the golden matrix", spec.Name, n)
			continue
		}
		for col, srv := range r.addrs() {
			resp := pipeline(t, srv.addr, []Frame{{Type: n}}, 1)[0]
			refusal := srv.role + " cannot handle " + FrameName(n)
			refused := resp.Type == MsgErr && strings.Contains(string(resp.Payload), refusal)
			if refused == want[col] {
				t.Errorf("%s ← %s: served=%v, want %v (response type %s: %.80s)",
					srv.role, FrameName(n), !refused, want[col], FrameName(resp.Type), resp.Payload)
			}
		}
	}
	// An unregistered frame number is refused by name too.
	resp := pipeline(t, r.sp.Addr(), []Frame{{Type: 250}}, 1)[0]
	if resp.Type != MsgErr || !strings.Contains(string(resp.Payload), "SP cannot handle Msg(250) (250)") {
		t.Errorf("unknown frame: %s %q", FrameName(resp.Type), resp.Payload)
	}
}

// TestLifecycleGateInsideGroups pipelines a burst of 8 verified queries
// at a warming primary, then at a retired one: every frame gets its own
// error frame and nothing is attested, however the lane would have
// grouped them.
func TestLifecycleGateInsideGroups(t *testing.T) {
	_, _, srv := startPrimary(t, 800)
	reqs := rangeFrames(MsgVerifiedQuery, workload.Queries(8, workload.DefaultExtent, 95))
	check := func(state, want string) {
		t.Helper()
		for i, resp := range pipeline(t, srv.Addr(), reqs, len(reqs)) {
			if resp.Type != MsgErr || !strings.Contains(string(resp.Payload), want) {
				t.Fatalf("%s primary, frame %d: got %s %.80q, want an error naming %q",
					state, i, FrameName(resp.Type), resp.Payload, want)
			}
		}
	}
	srv.SetWarming(true)
	check("warming", "still warming")
	srv.SetWarming(false)
	for i, resp := range pipeline(t, srv.Addr(), reqs, len(reqs)) {
		if resp.Type != MsgVerifiedResult {
			t.Fatalf("live primary, frame %d: got %s %.80q", i, FrameName(resp.Type), resp.Payload)
		}
	}
	srv.Retire()
	check("retired", "shard retired")
}

// TestSpanEscapeInsideGroup pipelines 8 verified queries at one shard of
// a two-shard plan, one of them reaching past the shard's span: that
// frame alone gets ErrProtocol, the other 7 get answers byte-identical to
// the same queries sent alone, and no group fell back.
func TestSpanEscapeInsideGroup(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	plan := shard.PlanFor(ds.Records, 2)
	span := plan.Span(0)
	var own []record.Record
	for _, rec := range ds.Records {
		if rec.Key >= span.Lo && rec.Key <= span.Hi {
			own = append(own, rec)
		}
	}
	sys, err := core.OpenDurableSystem(t.TempDir(), own, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	srv, err := ServePrimary("127.0.0.1:0", sys, replica.Attach(sys, 0), nil, WithShardInfo(ShardInfo{Index: 0, Plan: plan}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	width := (span.Hi - span.Lo) / 16
	qs := make([]record.Range, 8)
	for i := range qs {
		lo := span.Lo + record.Key(i)*width
		qs[i] = record.Range{Lo: lo, Hi: lo + width}
	}
	const bad = 5
	qs[bad] = record.Range{Lo: span.Hi - width, Hi: span.Hi + 1} // one key into shard 1
	reqs := rangeFrames(MsgVerifiedQuery, qs)

	before := ReadBurstCounters().Fallbacks
	alone := pipeline(t, srv.Addr(), reqs, 1)
	burst := pipeline(t, srv.Addr(), reqs, len(reqs))
	if got := ReadBurstCounters().Fallbacks - before; got != 0 {
		t.Errorf("span escape caused %d group fallbacks; it must be refused before grouping", got)
	}
	for i := range reqs {
		if i == bad {
			for _, resp := range []Frame{alone[i], burst[i]} {
				if resp.Type != MsgErr || !strings.Contains(string(resp.Payload), ErrProtocol.Error()) ||
					!strings.Contains(string(resp.Payload), "escapes shard 0's span") {
					t.Fatalf("escaping query: got %s %.100q", FrameName(resp.Type), resp.Payload)
				}
			}
			continue
		}
		if burst[i].Type != MsgVerifiedResult {
			t.Fatalf("query %d beside the escape: got %s %.80q", i, FrameName(burst[i].Type), burst[i].Payload)
		}
		if !bytes.Equal(burst[i].Payload, alone[i].Payload) {
			t.Fatalf("query %d: answer in the burst differs from the answer alone", i)
		}
	}
}

// TestIdleConnectionServesUnderAdoptedPlan: the attestation a burst is
// span-checked and stamped under is taken when the burst's first frame
// arrives, not when the connection went idle. A primary answers one
// verified query at epoch 0, adopts an epoch-1 plan that halves its span,
// and the next frames on the SAME connection must carry epoch 1 and be
// refused where they reach into the half the shard no longer owns.
func TestIdleConnectionServesUnderAdoptedPlan(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 1000, 11)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.OpenDurableSystem(t.TempDir(), ds.Records, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	plan := shard.PlanFor(ds.Records, 1)
	srv, err := ServePrimary("127.0.0.1:0", sys, replica.Attach(sys, 0), nil, WithShardInfo(ShardInfo{Plan: plan}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	ask := func(q record.Range) Frame {
		t.Helper()
		if err := WriteFrame(nc, Frame{Type: MsgVerifiedQuery, ID: 1, Payload: EncodeRange(q)}); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadFrame(nc)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	epochOf := func(resp Frame) uint64 {
		t.Helper()
		if resp.Type != MsgVerifiedResult {
			t.Fatalf("got %s %.100q, want a verified result", FrameName(resp.Type), resp.Payload)
		}
		epoch, _, _, _, err := DecodeVerifiedResult(resp.Payload)
		if err != nil {
			t.Fatal(err)
		}
		return epoch
	}

	mid := record.Key(record.KeyDomain / 2)
	low, high := record.Range{Lo: 10, Hi: mid - 10}, record.Range{Lo: mid + 10, Hi: mid + 1000}
	if got := epochOf(ask(high)); got != 0 {
		t.Fatalf("before the plan update: epoch %d, want 0", got)
	}
	next, err := plan.SplitShard(0, []record.Key{mid})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AdoptPlan(ShardInfo{Index: 0, Plan: next}); err != nil {
		t.Fatal(err)
	}
	if resp := ask(high); resp.Type != MsgErr || !strings.Contains(string(resp.Payload), "escapes shard 0's span") {
		t.Fatalf("query into the span the shard gave up: got %s %.100q, want the span refusal",
			FrameName(resp.Type), resp.Payload)
	}
	if got := epochOf(ask(low)); got != 1 {
		t.Fatalf("after the plan update: epoch %d, want 1", got)
	}
}

// TestStuckPeerDoesNotHoldTheLane: a connection whose peer has stopped
// reading its responses must wait for that peer alone. On a one-lane
// server a client pipelines far more answer bytes than the socket
// buffers hold and reads none of them; a second connection of the same
// lane must still be served, and once the first client starts reading it
// gets every answer whole — the remainder the lane handed off is neither
// lost nor interleaved with another frame.
func TestStuckPeerDoesNotHoldTheLane(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one lane for every connection
	const n = 1000
	spSrv, _, _ := launchSAE(t, n)
	all := EncodeRange(record.Range{Lo: 0, Hi: record.KeyDomain})

	stuck, err := net.Dial("tcp", spSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stuck.Close()
	stuck.SetDeadline(time.Now().Add(60 * time.Second))
	stuck.(*net.TCPConn).SetReadBuffer(16 << 10)
	// 32 full-range answers of n records: 16 MB against a send buffer the
	// kernel grows to a few MB at most. The requests themselves are small
	// and all fit the server's receive buffer.
	const asked = 32
	for i := 0; i < asked; i++ {
		if err := WriteFrame(stuck, Frame{Type: MsgQuery, ID: uint32(i), Payload: all}); err != nil {
			t.Fatal(err)
		}
	}

	live, err := DialSP(spSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 20; i++ {
			recs, err := spQuery(live, record.Range{Lo: 0, Hi: record.KeyDomain})
			if err == nil && len(recs) != n {
				err = fmt.Errorf("live connection got %d records, want %d", len(recs), n)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a peer that does not read its responses stalled another connection of its lane")
	}

	seen := make(map[uint32]bool)
	for i := 0; i < asked; i++ {
		resp, err := ReadFrame(stuck)
		if err != nil {
			t.Fatalf("stuck peer's answer %d: %v", i, err)
		}
		recs, rest, err := DecodeRecords(resp.Payload)
		if resp.Type != MsgResult || err != nil || len(rest) != 0 || len(recs) != n || seen[resp.ID] {
			t.Fatalf("stuck peer's answer %d (id %d): %s, %d records, %d trailing bytes, err %v",
				i, resp.ID, FrameName(resp.Type), len(recs), len(rest), err)
		}
		seen[resp.ID] = true
	}
}

// TestPrimaryGroupsVerifiedFrames guards the move of primaries onto the
// lanes: a pipelined burst of verified queries at a PrimaryServer is
// served as a group. (At the parent commit primaries ran a
// goroutine-per-frame loop and GroupedFrames never moved.)
func TestPrimaryGroupsVerifiedFrames(t *testing.T) {
	_, _, srv := startPrimary(t, 800)
	reqs := rangeFrames(MsgVerifiedQuery, workload.Queries(16, workload.DefaultExtent, 96))
	before := ReadBurstCounters()
	for i, resp := range pipeline(t, srv.Addr(), reqs, len(reqs)) {
		if resp.Type != MsgVerifiedResult {
			t.Fatalf("frame %d: got %s %.80q", i, FrameName(resp.Type), resp.Payload)
		}
	}
	after := ReadBurstCounters()
	if got := after.GroupedFrames - before.GroupedFrames; got < int64(len(reqs)) {
		t.Fatalf("GroupedFrames rose by %d for %d pipelined verified queries", got, len(reqs))
	}
	if got := after.Fallbacks - before.Fallbacks; got != 0 {
		t.Fatalf("%d fallbacks on a healthy burst", got)
	}
}

// TestPrimaryPipelinedWritesCoalesce guards the other half: write frames
// stayed OFF the lanes. 8 pipelined MsgBatchInsert frames on one
// connection must be in the committer at once so group commit can
// coalesce them; served one at a time on a lane each would wait for its
// own fsync and commit as 8 groups. A read view holds the commit lock
// until all 8 are in the committer, so whether they coalesce does not
// depend on the scheduler: the first group to arrive waits at the lock,
// and every other batch joins the group after it.
func TestPrimaryPipelinedWritesCoalesce(t *testing.T) {
	sys, _, srv := startPrimary(t, 800)
	const batches, batch = 8, 2 // 8 × 2 fits startPrimary's 16-op group cap
	reqs := make([]Frame, batches)
	for i := range reqs {
		recs := make([]record.Record, batch)
		for j := range recs {
			recs[j] = record.Synthesize(record.ID(1<<40+i*len(recs)+j), record.Key((i*len(recs)+j)*9973%record.KeyDomain))
		}
		reqs[i] = Frame{Type: MsgBatchInsert, Payload: EncodeRecords(recs)}
	}
	before := sys.Stats()
	held, released := make(chan struct{}), make(chan error, 1)
	go func() {
		released <- sys.View()(func(uint64, *core.ServiceProvider, *core.TrustedEntity) error {
			close(held)
			for deadline := time.Now().Add(10 * time.Second); sys.Committer().Pending() < batches*batch; {
				if time.Now().After(deadline) {
					return fmt.Errorf("only %d of %d ops reached the committer", sys.Committer().Pending(), batches*batch)
				}
				time.Sleep(time.Millisecond)
			}
			return nil
		})
	}()
	<-held
	for i, resp := range pipeline(t, srv.Addr(), reqs, len(reqs)) {
		if resp.Type != MsgAck {
			t.Fatalf("batch %d: got %s %.80q", i, FrameName(resp.Type), resp.Payload)
		}
	}
	if err := <-released; err != nil {
		t.Fatal(err)
	}
	after := sys.Stats()
	if got := after.Ops - before.Ops; got != batches*batch {
		t.Fatalf("committed %d ops, want %d", got, batches*batch)
	}
	if got := after.Groups - before.Groups; got > 2 {
		t.Fatalf("%d pipelined batches committed in %d groups; they did not coalesce", batches, got)
	}
}

// oversizeRecords is a dataset whose full-range answer exceeds MaxPayload.
const oversizeRecords = MaxPayload/record.Size + 1

// TestOversizeResponseOneCheck trips the response size limit through a
// lane row (MsgQuery) and through an own-goroutine row (MsgReplicaSnapReq,
// which ships the whole shard): both degrade to the same per-request
// error and the connection survives to serve the next request.
func TestOversizeResponseOneCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a >64 MiB dataset")
	}
	_, _, srv := startPrimary(t, oversizeRecords)

	all := record.Range{Lo: 0, Hi: record.KeyDomain}
	small := record.Range{Lo: 0, Hi: 1000}
	reqs := []Frame{
		{Type: MsgQuery, Payload: EncodeRange(all)},
		{Type: MsgReplicaSnapReq},
		{Type: MsgQuery, Payload: EncodeRange(small)},
		{Type: MsgShardMapReq},
	}
	// One connection, one frame at a time: each oversize answer must leave
	// the connection usable for the request after it.
	resps := pipeline(t, srv.Addr(), reqs, 1)
	for _, i := range []int{0, 1} {
		if resps[i].Type != MsgErr || !strings.Contains(string(resps[i].Payload), "exceeds frame limit") {
			t.Fatalf("oversize %s: got %s %.100q", FrameName(reqs[i].Type), FrameName(resps[i].Type), resps[i].Payload)
		}
	}
	// Same check, same text — but for the byte count, which differs by the
	// snapshot's attestation and sequence header.
	lane, own := string(resps[0].Payload), string(resps[1].Payload)
	strip := func(s string) string {
		return strings.Map(func(r rune) rune {
			if r >= '0' && r <= '9' {
				return -1
			}
			return r
		}, s)
	}
	if strip(lane) != strip(own) {
		t.Fatalf("lane row and own row report oversize differently:\n  %s\n  %s", lane, own)
	}
	if resps[2].Type != MsgResult || resps[3].Type != MsgShardMap {
		t.Fatalf("connection did not survive: follow-ups answered %s, %s", FrameName(resps[2].Type), FrameName(resps[3].Type))
	}
}

// TestServerClosesOnMisframedRequest: a length prefix over MaxPayload is
// not a request the server can refuse and move on from — the framing is
// lost — so the connection is torn down.
func TestServerClosesOnMisframedRequest(t *testing.T) {
	spSrv, _, _ := launchSAE(t, 100)
	nc, err := net.Dial("tcp", spSrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	hdr := []byte{byte(MsgQuery), 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := nc.Write(hdr); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := ReadFrame(nc); !errors.Is(err, io.EOF) {
		t.Fatalf("read after an oversize request header: %v, want EOF", err)
	}
}
