package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sae/internal/record"
)

// TestRoundTripAbandonCleansPending: a context-cancelled round trip (the
// hedged-request loser, a timed-out sub-request), alone or as a group,
// removes every pending entry, leaves the connection healthy, and its
// late response — arriving after the abandonment — is discarded by the
// demux loop rather than delivered to a later request: its payload goes
// back to the receive pool, exactly once. Runs under -race in CI.
func TestRoundTripAbandonCleansPending(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("group of %d", n), func(t *testing.T) { abandonGroup(t, n) })
	}
}

func abandonGroup(t *testing.T, n int) {
	const tag = 0x7003
	base := releasedCount(tag)
	release := make(chan struct{})
	var releaseOnce sync.Once
	unstall := func() { releaseOnce.Do(func() { close(release) }) }
	var stalled atomic.Bool
	srv, err := Serve("127.0.0.1:0", func(req Frame, rb *RespBuf) Frame {
		switch req.Type {
		case MsgQuery:
			if stalled.CompareAndSwap(false, true) {
				<-release // stall until the test releases the response
				return Frame{Type: MsgResult, Payload: tagged(tag, 4096)}
			}
			rb.AppendUint32(0)
			return Frame{Type: MsgResult, Payload: rb.Bytes()}
		default:
			return ErrFrame(ErrProtocol)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer unstall()

	c, err := DialSP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	qs := make([]record.Range, n)
	for i := range qs {
		qs[i] = record.Range{Lo: 0, Hi: 100}
	}
	if _, err := c.QueryRawMany(ctx, qs); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned round trip: got %v, want a deadline error", err)
	}

	// The abandoned requests' pending entries are gone and the connection is
	// unpoisoned.
	c.mu.Lock()
	left := len(c.pending)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d pending entries survive an abandoned round trip", left)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("abandonment poisoned the connection: %v", err)
	}

	// Let the stalled handler finally answer: the late frame carries the
	// abandoned request's id, matches no pending entry and is discarded,
	// its buffer returned. A fresh request on the same connection must get
	// ITS response (ids never collide), proving no double delivery.
	unstall()
	awaitReleased(t, tag, base+1)
	raws, err := c.QueryRawMany(context.Background(), qs[:1])
	if err != nil {
		t.Fatalf("fresh request after an abandoned one: %v", err)
	}
	if len(raws[0]) != 4 {
		t.Fatalf("fresh response payload is %d bytes, want the 4-byte empty count", len(raws[0]))
	}
	c.mu.Lock()
	left = len(c.pending)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d pending entries after the fresh round trip", left)
	}
}
