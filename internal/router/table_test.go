package router

import (
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"sae/internal/record"
	"sae/internal/wire"
)

// ask sends one raw frame to a router and returns the reply frame, or the
// refusal text when the reply is an error frame.
func ask(t *testing.T, c *wire.Conn, typ wire.MsgType, payload []byte) (wire.Frame, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := c.RoundTripCtx(ctx, wire.Frame{Type: typ, Payload: payload})
	var se *wire.ServerError
	if errors.As(err, &se) {
		return wire.Frame{Type: wire.MsgErr}, se.Msg
	}
	if err != nil {
		t.Fatalf("%s: the connection did not survive: %v", wire.FrameName(typ), err)
	}
	return resp, ""
}

// TestRouterRowMatrix sends EVERY frame number to a router over a
// 3-shard deployment that has an upstream for every role. A frame with a
// row is answered with the row's reply type, everything else — owner
// updates, replication, the lifecycle, responses, the retired numbers
// (the TOM query frames 9 and 24 among them, checked by name), unassigned
// numbers — with the one CannotHandle refusal, and the connection
// outlives all of it. Then shard 1 dies, and every scatter row
// must answer with an error frame naming shard 1 and its leg, never a
// truncated answer: the one scatter is the only place that loop lives.
func TestRouterRowMatrix(t *testing.T) {
	const n = 6_000
	d := newReplicaDeployment(t, n, 3, 0, Config{ProbeInterval: -1})
	r, err := New(Config{SPs: d.primAddrs, TEs: d.primAddrs, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The reply type each row answers a 3-shard deployment with.
	golden := map[wire.MsgType]wire.MsgType{
		wire.MsgQuery:         wire.MsgResult,
		wire.MsgVTRequest:     wire.MsgVT,
		wire.MsgAggQuery:      wire.MsgAggResult,
		wire.MsgAggTokenReq:   wire.MsgAggToken,
		wire.MsgVerifiedQuery: wire.MsgVerifiedResult,
		wire.MsgVerifiedAgg:   wire.MsgVerifiedAggResult,
		wire.MsgShardMapReq:   wire.MsgShardMap,
		wire.MsgGenStampReq:   wire.MsgGenStamp,
	}
	all := wire.EncodeRange(record.Range{Lo: 0, Hi: record.KeyDomain})
	for _, typ := range []wire.MsgType{9, 24} {
		if _, refusal := ask(t, c, typ, all); refusal != wire.CannotHandle("router", typ).Error() {
			t.Errorf("retired TOM frame %d: got %q, want the CannotHandle refusal", typ, refusal)
		}
	}
	for i := 1; i <= 255; i++ {
		typ := wire.MsgType(i)
		hasRow := i < len(rows) && (rows[i].local != nil || rows[i].merge != nil)
		resp, refusal := ask(t, c, typ, all)
		want, listed := golden[typ]
		switch {
		case typ == wire.MsgReshardCutover:
			// Its row answers: a range is no cutover order, and the decoder
			// says so — not "cannot handle".
			if !hasRow || resp.Type != wire.MsgErr || strings.Contains(refusal, "cannot handle") {
				t.Errorf("ReshardCutover with a range payload: %s %q", wire.FrameName(resp.Type), refusal)
			}
		case listed != hasRow:
			t.Errorf("%s: row=%v but the golden matrix lists it=%v", wire.FrameName(typ), hasRow, listed)
		case hasRow && resp.Type != want:
			t.Errorf("%s answered with %s %q, want %s", wire.FrameName(typ), wire.FrameName(resp.Type), refusal, wire.FrameName(want))
		case !hasRow && refusal != wire.CannotHandle("router", typ).Error():
			t.Errorf("%s: got %s %q, want the CannotHandle refusal", wire.FrameName(typ), wire.FrameName(resp.Type), refusal)
		}
	}
	if err := c.Err(); err != nil {
		t.Fatalf("connection died during the matrix: %v", err)
	}

	d.primSrvs[1].Close()
	for i := range rows {
		ro := &rows[i]
		if ro.merge == nil {
			continue
		}
		resp, refusal := ask(t, c, wire.MsgType(i), all)
		if resp.Type != wire.MsgErr || !strings.Contains(refusal, "router: shard 1 "+ro.what+": ") {
			t.Errorf("%s with shard 1 dead: got %s %q, want an error naming shard 1's %s leg",
				wire.FrameName(wire.MsgType(i)), wire.FrameName(resp.Type), refusal, ro.what)
		}
	}
	// The local rows need no upstream, and the connection is still there.
	if resp, refusal := ask(t, c, wire.MsgShardMapReq, nil); resp.Type != wire.MsgShardMap {
		t.Fatalf("shard map after the failures: %s %q", wire.FrameName(resp.Type), refusal)
	}
}

// tap is a counting relay in front of one upstream: it counts the TCP
// connections the router opens to the address and the request frames it
// sends there, by type.
type tap struct {
	ln net.Listener
	mu sync.Mutex
	// conns and frames are guarded by mu.
	conns  int
	frames map[wire.MsgType]int
}

func newTap(t *testing.T, upstream string) *tap {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tp := &tap{ln: ln, frames: make(map[wire.MsgType]int)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", upstream)
			if err != nil {
				down.Close()
				continue
			}
			tp.mu.Lock()
			tp.conns++
			tp.mu.Unlock()
			go func() { // replies flow back untouched
				io.Copy(down, up)
				down.Close()
			}()
			go func() { // requests are counted frame by frame
				defer up.Close()
				for {
					f, err := wire.ReadFrame(down)
					if err != nil {
						return
					}
					tp.mu.Lock()
					tp.frames[f.Type]++
					tp.mu.Unlock()
					if wire.WriteFrame(up, f) != nil {
						return
					}
				}
			}()
		}
	}()
	return tp
}

func (tp *tap) addr() string { return tp.ln.Addr().String() }

func (tp *tap) counts(typ wire.MsgType) (conns, frames int) {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.conns, tp.frames[typ]
}

// TestRouterOneEndpointPerAddress: a combined primary or a replica serves
// the SP, TE and verified role sets from ONE endpoint — Conns connections
// to the address however many roles it plays, one generation-stamp probe
// per tick, one Health row.
func TestRouterOneEndpointPerAddress(t *testing.T) {
	d := newReplicaDeployment(t, 4_000, 2, 1, Config{ProbeInterval: -1})
	var taps []*tap
	cfg := Config{Conns: 2, ProbeInterval: -1, Replicas: make([][]string, 2)}
	for i := range d.primAddrs {
		prim, rep := newTap(t, d.primAddrs[i]), newTap(t, d.reps[i][0].addr)
		taps = append(taps, prim, rep)
		cfg.SPs = append(cfg.SPs, prim.addr())
		cfg.TEs = append(cfg.TEs, prim.addr())
		cfg.Replicas[i] = []string{rep.addr()}
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	// Every role, both shards, enough rounds for the round-robin to reach
	// every address's whole pool.
	vc, err := wire.DialVerifying(r.Addr(), r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	sc, err := wire.DialVerified(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	all := record.Range{Lo: 0, Hi: record.KeyDomain}
	for i := 0; i < 8; i++ {
		if _, err := vc.Query(all); err != nil {
			t.Fatalf("SP+TE query: %v", err)
		}
		if _, _, err := sc.Query(all); err != nil {
			t.Fatalf("verified query: %v", err)
		}
	}

	before := make([]int, len(taps))
	for i, tp := range taps {
		conns, stamps := tp.counts(wire.MsgGenStampReq)
		if conns != cfg.Conns {
			t.Errorf("upstream %d: the router holds %d connections to one address, want Conns = %d", i, conns, cfg.Conns)
		}
		before[i] = stamps
	}
	r.topo.Load().probe(time.Second)
	for i, tp := range taps {
		if _, stamps := tp.counts(wire.MsgGenStampReq); stamps-before[i] != 1 {
			t.Errorf("upstream %d: one probe tick sent %d generation-stamp probes to one address, want 1", i, stamps-before[i])
		}
	}

	health := r.Health()
	if len(health) != len(taps) {
		t.Fatalf("Health reports %d rows for %d upstream addresses: %+v", len(health), len(taps), health)
	}
	for _, h := range health {
		if !slices.Equal(h.Roles, []string{"SP", "TE", "verified"}) || h.Down {
			t.Errorf("Health row %+v: want roles [SP TE verified], up", h)
		}
	}
}
