package router

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"sync"
	"testing"
	"time"

	"sae/internal/digest"
	"sae/internal/record"
	"sae/internal/wire"
)

// Every payload this package's tests send back to wire's receive pool is
// overwritten first, so a relay that still references a released upstream
// payload ships garbage and the client's verification — in the router,
// adversarial, hedging and replica suites alike — fails. released counts
// the releases by the payload's first eight bytes, for the tests that tag
// theirs.
var released = struct {
	sync.Mutex
	tags map[uint64]int
}{tags: make(map[uint64]int)}

func TestMain(m *testing.M) {
	wire.SetReleaseHook(func(p []byte) {
		released.Lock()
		released.tags[binary.BigEndian.Uint64(p)]++
		released.Unlock()
		for i := range p {
			p[i] = 0xDB
		}
	})
	os.Exit(m.Run())
}

func releasedCount(tag uint64) int {
	released.Lock()
	defer released.Unlock()
	return released.tags[tag]
}

// TestRouterRelayGolden: an answer relayed by reference is byte-for-byte
// the frame the copying splice built — for a range inside one shard, one
// straddling a seam and the whole domain; for the verified row (min
// epoch, min generation, XOR of the tokens, total count, records in shard
// order) and the plain record row. The expectation is assembled here, the
// old way, from what each primary answers for its clamp.
func TestRouterRelayGolden(t *testing.T) {
	d := newReplicaDeployment(t, 6_000, 3, 0, Config{ProbeInterval: -1})
	c, err := wire.Dial(d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	prims := make([]*wire.Conn, len(d.primAddrs))
	for i, addr := range d.primAddrs {
		if prims[i], err = wire.Dial(addr); err != nil {
			t.Fatal(err)
		}
		defer prims[i].Close()
	}
	seam := d.plan.Span(0).Hi
	for _, q := range []record.Range{
		{Lo: seam - 900_000, Hi: seam - 100_000},
		{Lo: seam - 400_000, Hi: seam + 400_000},
		{Lo: 0, Hi: record.KeyDomain},
	} {
		var acc digest.Accumulator
		var minEpoch, minGen uint64
		var recs []byte
		subs := d.plan.Scatter(q)
		for i, sub := range subs {
			leg, refusal := ask(t, prims[sub.Shard], wire.MsgVerifiedQuery, wire.EncodeRange(sub.Sub))
			if refusal != "" {
				t.Fatalf("shard %d: %s", sub.Shard, refusal)
			}
			epoch, gen, vt, recsRaw, err := wire.DecodeVerifiedResult(leg.Payload)
			if err != nil {
				t.Fatal(err)
			}
			acc.Add(vt)
			if i == 0 || epoch < minEpoch {
				minEpoch = epoch
			}
			if i == 0 || gen < minGen {
				minGen = gen
			}
			recs = append(recs, recsRaw[4:]...)
		}
		if len(recs) == 0 {
			t.Fatalf("%v selects no records; the golden needs some", q)
		}
		wantRecs := binary.BigEndian.AppendUint32(nil, uint32(len(recs)/record.Size))
		wantRecs = append(wantRecs, recs...)
		vt := acc.Sum()
		wantVerified := binary.BigEndian.AppendUint64(nil, minEpoch)
		wantVerified = binary.BigEndian.AppendUint64(wantVerified, minGen)
		wantVerified = append(append(wantVerified, vt[:]...), wantRecs...)

		for _, tc := range []struct {
			typ  wire.MsgType
			want []byte
		}{{wire.MsgVerifiedQuery, wantVerified}, {wire.MsgQuery, wantRecs}} {
			got, refusal := ask(t, c, tc.typ, wire.EncodeRange(q))
			if refusal != "" {
				t.Fatalf("%s %v: %s", wire.FrameName(tc.typ), q, refusal)
			}
			if !bytes.Equal(got.Payload, tc.want) {
				t.Errorf("%s %v over %d legs: relayed %d bytes differ from the spliced %d",
					wire.FrameName(tc.typ), q, len(subs), len(got.Payload), len(tc.want))
			}
			wire.Release(got.Payload)
		}
	}
}

// TestRouterHedgeLoserPayloadReleased: the stalled leg of a hedged race is
// abandoned when its sibling wins; when its answer does arrive — a whole
// record-sized payload — nobody waits for it, and it goes back to the
// receive pool, once per abandoned request.
func TestRouterHedgeLoserPayloadReleased(t *testing.T) {
	const tag = 0x7101
	base := releasedCount(tag) // -count reruns the test
	d := newReplicaDeployment(t, 3_000, 1, 0, Config{ProbeInterval: -1})
	late := make([]byte, 8192)
	binary.BigEndian.PutUint64(late, tag)
	release := make(chan struct{})
	unstall := sync.OnceFunc(func() { close(release) })
	fake, err := wire.Serve("127.0.0.1:0", func(req wire.Frame, rb *wire.RespBuf) wire.Frame {
		switch req.Type {
		case wire.MsgShardMapReq:
			return wire.Frame{Type: wire.MsgShardMap, Payload: wire.EncodeShardInfo(wire.ShardInfo{Index: 0, Plan: d.plan})}
		case wire.MsgVerifiedQuery:
			<-release
			return wire.Frame{Type: wire.MsgVerifiedResult, Payload: late}
		default:
			return wire.ErrFrame(wire.ErrProtocol)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()
	defer unstall() // runs before fake.Close: stalled handlers drain
	r, err := New(Config{
		SPs:           d.primAddrs,
		TEs:           d.primAddrs,
		Replicas:      [][]string{{fake.Addr()}},
		HedgeAfter:    15 * time.Millisecond,
		MaxLag:        1 << 30,
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	set := r.topo.Load().sets[roleVerified][0]
	q := wire.EncodeRange(record.Range{Lo: 0, Hi: record.KeyDomain})
	for i := 0; i < 6; i++ {
		p, err := set.do(context.Background(), func(ctx context.Context, c *wire.Conn, _ *endpoint) ([]byte, error) {
			resp, err := c.RoundTripCtx(ctx, wire.Frame{Type: wire.MsgVerifiedQuery, Payload: q})
			return resp.Payload, err
		})
		if err != nil {
			t.Fatalf("hedged request %d: %v", i, err)
		}
		if binary.BigEndian.Uint64(p) == tag {
			t.Fatal("the stalled endpoint won a race")
		}
		wire.Release(p)
	}
	// Every hedge had the stalled endpoint on one side; all of them are
	// abandoned by now and answer only after this.
	stalled := int(r.Counters().Hedges)
	if stalled == 0 {
		t.Fatal("no request was ever hedged")
	}
	if n := releasedCount(tag) - base; n != 0 {
		t.Fatalf("%d late payloads released before any was sent", n)
	}
	unstall()
	deadline := time.Now().Add(5 * time.Second)
	for releasedCount(tag)-base != stalled {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d abandoned legs' payloads were released", releasedCount(tag)-base, stalled)
		}
		time.Sleep(time.Millisecond)
	}
}
