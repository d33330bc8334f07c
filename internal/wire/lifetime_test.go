package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"sae/internal/record"
)

// poisonByte overwrites every payload on its way back to the receive
// pool, for this package's whole test run: whoever still reads a released
// payload decodes garbage and fails its test.
const poisonByte = 0xDB

// released counts pooled releases by the payload's first eight bytes; the
// lifetime tests tag their payloads there to find them again.
var released = struct {
	sync.Mutex
	tags map[uint64]int
}{tags: make(map[uint64]int)}

func TestMain(m *testing.M) {
	SetReleaseHook(func(p []byte) {
		released.Lock()
		released.tags[binary.BigEndian.Uint64(p)]++
		released.Unlock()
		for i := range p {
			p[i] = poisonByte
		}
	})
	os.Exit(m.Run())
}

// tagged returns an n-byte payload that starts with tag.
func tagged(tag uint64, n int) []byte {
	p := make([]byte, n)
	binary.BigEndian.PutUint64(p, tag)
	return p
}

func releasedCount(tag uint64) int {
	released.Lock()
	defer released.Unlock()
	return released.tags[tag]
}

// awaitReleased waits until payloads tagged tag have gone back to the pool
// want times in all (tests take releasedCount first: -count reruns them).
func awaitReleased(t *testing.T, tag uint64, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := releasedCount(tag)
		if got == want {
			return
		}
		if got > want || time.Now().After(deadline) {
			t.Fatalf("payload %#x released %d times, want %d", tag, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPayloadPoolClasses: a pooled payload has a power-of-two capacity
// that Release recognises, payloads outside the pooled sizes are plain
// allocations Release ignores, and so is a slice cut from the middle of a
// pooled one.
func TestPayloadPoolClasses(t *testing.T) {
	for _, n := range []int{minPooled, minPooled + 1, 250_000, respBufRetain} {
		p := getPayload(n)
		if c := cap(p); len(p) != n || c < n || c&(c-1) != 0 || c >= 2*n {
			t.Errorf("getPayload(%d): len %d cap %d, want the next power of two", n, len(p), cap(p))
		}
	}
	const tag = 0x7001
	base := releasedCount(tag)
	for _, n := range []int{0, minPooled - 1, respBufRetain + 1} {
		p := getPayload(n)
		if len(p) != n || cap(p) != n {
			t.Errorf("getPayload(%d): len %d cap %d, want a plain allocation", n, len(p), cap(p))
		}
		if n >= 8 {
			binary.BigEndian.PutUint64(p, tag)
		}
		Release(p)
	}
	p := getPayload(4096)
	binary.BigEndian.PutUint64(p[8:], tag)
	Release(p[8:])
	awaitReleased(t, tag, base)
	if p[16] == poisonByte {
		t.Fatal("releasing a sub-slice poisoned the payload it was cut from")
	}
}

// TestTruncatedPayloadNeverDelivered: a frame whose payload arrives short
// fails the read with ErrProtocol, its half-filled buffer goes back to the
// pool, and on a connection the waiter gets the error, never the frame.
func TestTruncatedPayloadNeverDelivered(t *testing.T) {
	const tag = 0x7002
	base := releasedCount(tag)
	whole := frameBytes(t, Frame{Type: MsgResult, ID: 1, Payload: tagged(tag, 4096)})
	short := whole[:HeaderSize+100]
	if _, err := ReadFrame(bytes.NewReader(short)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("ReadFrame(truncated) = %v, want ErrProtocol", err)
	}
	awaitReleased(t, tag, base+1)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := ReadFrame(nc); err != nil {
			return
		}
		nc.Write(short) // the request's id is 1: the first on its connection
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := c.RoundTripCtx(context.Background(), Frame{Type: MsgQuery, Payload: EncodeRange(record.Range{Lo: 0, Hi: 100})})
	if !errors.Is(err, ErrProtocol) {
		t.Fatalf("round trip over a truncated reply = %+v, %v; want ErrProtocol", resp, err)
	}
	awaitReleased(t, tag, base+2)
}

// TestTypeZeroFrameIsProtocolError: type 0 is the client's in-band
// connection-lost marker, never a real answer. A peer that sends it breaks
// the connection with ErrProtocol instead of failing the one request while
// the connection stays up, and the frame's payload goes back to the pool.
func TestTypeZeroFrameIsProtocolError(t *testing.T) {
	const tag = 0x7004
	base := releasedCount(tag)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := ReadFrame(nc); err != nil {
			return
		}
		WriteFrame(nc, Frame{Type: msgConnLost, ID: 1, Payload: tagged(tag, 4096)})
		ReadFrame(nc) // hold the connection open until the client closes it
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RoundTripCtx(context.Background(), Frame{Type: MsgQuery, Payload: EncodeRange(record.Range{Lo: 0, Hi: 100})}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("round trip answered with type 0: %v, want ErrProtocol", err)
	}
	if err := c.Err(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("connection error after a type-0 frame = %v, want ErrProtocol", err)
	}
	awaitReleased(t, tag, base+1)
}

// TestGroupPayloadLifetime: a group round trip that ends early — query 3
// of 8 answered with MsgErr, or the group abandoned by ctx mid-flight —
// releases every payload the demux loop received for it exactly once,
// whether it arrived before the failure, during the cleanup or after it,
// and leaves no pending entry behind.
func TestGroupPayloadLifetime(t *testing.T) {
	t.Run("MsgErr at query 3", func(t *testing.T) {
		groupLifetime(t, 0x7100, 3, groupLen, func(err error) bool {
			var se *ServerError
			return errors.As(err, &se) && strings.Contains(se.Msg, "query 3")
		})
	})
	t.Run("abandoned mid-flight", func(t *testing.T) {
		groupLifetime(t, 0x7200, -1, 4, func(err error) bool { return errors.Is(err, context.DeadlineExceeded) })
	})
}

const groupLen = 8

// groupLifetime sends a group of groupLen queries whose i-th answer is a
// payload tagged tagBase+i, except that query errAt is refused and the
// answers from stallFrom on are held back until the group has failed.
func groupLifetime(t *testing.T, tagBase uint64, errAt, stallFrom int, failedAsWanted func(error) bool) {
	base := make([]int, groupLen)
	for i := range base {
		base[i] = releasedCount(tagBase + uint64(i))
	}
	release := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", func(req Frame, _ *RespBuf) Frame {
		q, err := DecodeRange(req.Payload)
		if err != nil {
			return ErrFrame(err)
		}
		i := int(q.Lo)
		if i == errAt {
			return ErrFrame(errors.New("refused"))
		}
		if i >= stallFrom {
			<-release
		}
		return Frame{Type: MsgResult, Payload: tagged(tagBase+uint64(i), 4096)}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	qs := make([]record.Range, groupLen)
	for i := range qs {
		qs[i] = record.Range{Lo: record.Key(i), Hi: record.Key(i)}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := c.exchange(ctx, rangeFrames(MsgQuery, qs)); !failedAsWanted(err) {
		t.Fatalf("group ended with %v", err)
	}
	close(release)
	for i := range qs {
		if i != errAt {
			awaitReleased(t, tagBase+uint64(i), base[i]+1)
		}
	}
	// A later round trip on the same connection orders after every late
	// frame of the group: nothing is released twice, nothing stays pending.
	if _, err := c.RoundTripCtx(context.Background(), Frame{Type: MsgQuery, Payload: EncodeRange(qs[0])}); err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if got := releasedCount(tagBase + uint64(i)); i != errAt && got != base[i]+1 {
			t.Fatalf("payload %d released %d times, want once", i, got-base[i])
		}
	}
	c.mu.Lock()
	left := len(c.pending)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d pending entries survive the group", left)
	}
}

// TestFrameOneWrite: a frame costs its connection one Write when the
// payload is small (header and payload in one buffer) and one vectored
// write when it is large or carries referenced spans — and the bytes are
// the same frame either way.
func TestFrameOneWrite(t *testing.T) {
	rb := new(RespBuf)
	rb.AppendUint32(7)
	rb.AppendRef([]byte("abc"))
	rb.AppendUint32(9)
	rb.AppendRef(nil)
	rb.AppendRef([]byte("defg"))
	spliced := rb.Frame(MsgResult)
	spliced.ID = 3
	flat := Frame{Type: MsgResult, ID: 3, Payload: []byte("\x00\x00\x00\x07abc\x00\x00\x00\x09defg")}
	for _, tc := range []struct {
		name   string
		f      Frame
		writes int
		want   []byte
	}{
		{"empty", Frame{Type: MsgAck, ID: 1}, 1, nil},
		{"small", Frame{Type: MsgQuery, ID: 2, Payload: EncodeRange(record.Range{Lo: 0, Hi: 100})}, 1, nil},
		{"large", Frame{Type: MsgResult, ID: 4, Payload: make([]byte, minPooled)}, 2, nil},
		{"spliced", spliced, 5, frameBytes(t, flat)},
	} {
		var w countingWriter
		if err := WriteFrame(&w, tc.f); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// A plain io.Writer sees a vectored write as one Write per span; a
		// TCP connection takes it as one writev.
		if w.writes != tc.writes {
			t.Errorf("%s: %d writes, want %d", tc.name, w.writes, tc.writes)
		}
		if tc.want != nil && !bytes.Equal(w.Bytes(), tc.want) {
			t.Errorf("%s: wire image %x, want %x", tc.name, w.Bytes(), tc.want)
		}
		back, err := ReadFrame(&w.Buffer)
		if err != nil || back.Type != tc.f.Type || back.ID != tc.f.ID || len(back.Payload) != tc.f.payloadLen() {
			t.Errorf("%s: read back %+v, %v", tc.name, back, err)
		}
	}
}

type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}
