package router

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"sae/internal/digest"
	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/wire"
)

// TestLonePrimaryLateAnswerRetried: on a shard whose primary is its only
// endpoint, one verified answer arrives stamped more than MaxLag groups
// behind the newest stamp the router has seen (a slow answer under a
// fast committer). The primary is not behind, only that answer is: the
// router asks the primary again instead of failing the request, and the
// endpoint's recorded stamp never moves back.
func TestLonePrimaryLateAnswerRetried(t *testing.T) {
	const newest = 1_000
	plan := shard.PlanFor(nil, 1)
	// The fake primary stamps its answers newest, then one answer 200
	// groups late, then newest+1 onwards.
	stamps := []uint64{newest, newest - 200}
	var answered atomic.Int64
	fake, err := wire.Serve("127.0.0.1:0", func(req wire.Frame, rb *wire.RespBuf) wire.Frame {
		switch req.Type {
		case wire.MsgShardMapReq:
			return wire.Frame{Type: wire.MsgShardMap, Payload: wire.EncodeShardInfo(wire.ShardInfo{Index: 0, Plan: plan})}
		case wire.MsgGenStampReq:
			rb.AppendUint64(newest)
			return wire.Frame{Type: wire.MsgGenStamp, Payload: rb.Bytes()}
		case wire.MsgVerifiedQuery:
			n := int(answered.Add(1)) - 1
			gen := uint64(newest + n - 1)
			if n < len(stamps) {
				gen = stamps[n]
			}
			// An empty answer: epoch, gen, the zero token, no records.
			var hdr [16]byte
			binary.BigEndian.PutUint64(hdr[0:8], plan.Epoch())
			binary.BigEndian.PutUint64(hdr[8:16], gen)
			rb.Append(hdr[:])
			rb.Append(digest.Zero[:])
			rb.Append(wire.EncodeRecords(nil))
			return wire.Frame{Type: wire.MsgVerifiedResult, Payload: rb.Bytes()}
		default:
			return wire.ErrFrame(wire.ErrProtocol)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()

	r, err := New(Config{
		SPs:           []string{fake.Addr()},
		TEs:           []string{fake.Addr()},
		MaxLag:        DefaultMaxLag,
		ProbeInterval: -1, // deterministic: no background stamping
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	vc, err := wire.DialVerified(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()

	q := record.Range{Lo: 0, Hi: record.KeyDomain - 1}
	for i, want := range []uint64{newest, newest + 1} {
		_, gen, err := vc.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if gen != want {
			t.Fatalf("query %d stamped %d, want %d", i, gen, want)
		}
	}
	if n := answered.Load(); n != 3 {
		t.Fatalf("the primary answered %d verified legs, want 3 (one retry)", n)
	}
	if c := r.Counters(); c.StaleRejects != 1 {
		t.Fatalf("%d stale rejects, want 1", c.StaleRejects)
	}
}

// TestNoteGenMonotone: an endpoint's recorded stamp only moves forward,
// whatever order its answers arrive in.
func TestNoteGenMonotone(t *testing.T) {
	ep := &endpoint{fresh: &freshness{maxLag: DefaultMaxLag}}
	for _, gen := range []uint64{10, 500, 300, 499} {
		ep.noteGen(gen)
	}
	if got := ep.gen.Load(); got != 500 {
		t.Fatalf("recorded stamp %d, want 500", got)
	}
	if !ep.noteGen(500-DefaultMaxLag-1) || ep.gen.Load() != 500 {
		t.Fatalf("a late answer was not stale, or moved the stamp back to %d", ep.gen.Load())
	}
}
