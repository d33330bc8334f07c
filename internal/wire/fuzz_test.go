package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"sae/internal/agg"
	"sae/internal/digest"
	"sae/internal/mbtree"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/tom"
	"sae/internal/wal"
	"sae/internal/workload"
)

// frameBytes serializes a frame exactly as a peer would put it on the
// wire, for use as a fuzz seed.
func frameBytes(t testing.TB, f Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeFrame throws arbitrary byte streams at the frame reader and
// the payload decoders behind it. The framing layer fronts every open
// port, so the property under test is total robustness: no panic, no
// over-allocation past MaxPayload, and a clean round-trip for every frame
// that parses — its payload read into the receive pool's buffers when its
// size says so. Seeds are real frames from the live protocol.
func FuzzDecodeFrame(f *testing.F) {
	ds, err := workload.Generate(workload.UNF, 50, 17)
	if err != nil {
		f.Fatal(err)
	}
	q := record.Range{Lo: 0, Hi: record.KeyDomain}
	f.Add(frameBytes(f, Frame{Type: MsgQuery, ID: 1, Payload: EncodeRange(q)}))
	f.Add(frameBytes(f, Frame{Type: MsgResult, ID: 2, Payload: EncodeRecords(ds.Records)}))
	// Many queries are two pipelined frames in one stream; the retired
	// many-ranges frame (number 11: count, then the ranges) and the retired
	// TOM query (number 9: one range) still parse as frames and are refused
	// at dispatch.
	pair := workload.Queries(2, workload.DefaultExtent, 18)
	f.Add(append(frameBytes(f, Frame{Type: MsgQuery, ID: 3, Payload: EncodeRange(pair[0])}),
		frameBytes(f, Frame{Type: MsgQuery, ID: 4, Payload: EncodeRange(pair[1])})...))
	f.Add(frameBytes(f, Frame{Type: 11, ID: 3, Payload: append([]byte{0, 0, 0, 1}, EncodeRange(q)...)}))
	f.Add(frameBytes(f, Frame{Type: 9, ID: 3, Payload: EncodeRange(q)}))
	f.Add(frameBytes(f, Frame{Type: MsgAggQuery, ID: 4, Payload: EncodeRange(q)}))
	f.Add(frameBytes(f, Frame{Type: MsgShardMapReq, ID: 5}))
	f.Add(frameBytes(f, ErrFrame(ErrProtocol)))
	// What clients decode from an untrusted router or primary: a verified
	// answer (plan epoch, generation stamp, token, records) and a
	// replication pull's commit groups, each exactly as a primary encodes
	// them.
	vt := digest.XORFoldWire(EncodeRecords(ds.Records)[4:], 1)
	verified := binary.BigEndian.AppendUint64(nil, 2)
	verified = binary.BigEndian.AppendUint64(verified, 7)
	verified = append(append(verified, vt[:]...), EncodeRecords(ds.Records)...)
	f.Add(frameBytes(f, Frame{Type: MsgVerifiedResult, ID: 6, Payload: verified}))
	// A verified aggregate: the scalar, then the token that checks it.
	a := agg.Agg{}.Add(ds.Records[0].Key)
	f.Add(frameBytes(f, Frame{Type: MsgVerifiedAggResult, ID: 6, Payload: agg.TokenFor(q, a).AppendTo(a.AppendTo(nil))}))
	groups := []byte{0}
	for seq, g := range [][]wal.Op{
		{wal.InsertOp(ds.Records[0]), wal.InsertOp(ds.Records[1])},
		{wal.DeleteOp(ds.Records[0].ID, ds.Records[0].Key)},
	} {
		if groups, err = wal.EncodeGroup(groups, uint64(seq+1), g); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(frameBytes(f, Frame{Type: MsgReplicaGroups, ID: 7, Payload: groups}))
	f.Add(frameBytes(f, Frame{Type: MsgReplicaPull, ID: 8, Payload: EncodeReplicaPull(3, 64)}))
	f.Add(frameBytes(f, Frame{Type: MsgFreeze, ID: 9, Payload: EncodeFreeze(time.Second)}))
	// A truncated header and a length prefix past MaxPayload.
	f.Add([]byte{byte(MsgQuery), 0, 0})
	f.Add([]byte{byte(MsgQuery), 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// The payload is pooled when its size says so, carries exactly the
		// stream's bytes either way, and is ours until released (TestMain
		// poisons released payloads, so a pool that handed this one out
		// twice would corrupt the comparisons below).
		n, c := len(fr.Payload), cap(fr.Payload)
		if n >= minPooled && n <= respBufRetain && (c&(c-1) != 0 || c < n || c >= 2*n) {
			t.Fatalf("payload of %d bytes has capacity %d, not its size class", n, c)
		}
		if !bytes.Equal(fr.Payload, data[HeaderSize:HeaderSize+n]) {
			t.Fatal("payload differs from the stream's bytes")
		}
		defer Release(fr.Payload)
		// Whatever parsed must re-encode to a stream that reads back
		// identically — the server trusts this when relaying frames.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("re-encoding a parsed frame: %v", err)
		}
		back, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-reading a re-encoded frame: %v", err)
		}
		if back.Type != fr.Type || back.ID != fr.ID || !bytes.Equal(back.Payload, fr.Payload) {
			t.Fatal("frame round-trip changed the frame")
		}
		// The payload decoders sit directly behind the dispatch switch on
		// every server, and behind every client's receive path; none may
		// panic on attacker-controlled bytes.
		p := fr.Payload
		_, _ = DecodeRange(p)
		_, _, _ = DecodeRecords(p)
		_, _ = DecodeShardInfo(p)
		_, _ = DecodeDeletes(p, nil)
		_, _ = DecodeInserts(p, nil)
		_, _, _, _, _ = DecodeVerifiedResult(p)
		_, _, _ = decodeVerifiedAgg(p)
		_, _, _ = DecodeReplicaGroups(p)
		_, _, _ = DecodeReplicaSnap(p)
		_, _, _ = DecodeReplicaPull(p)
		_, _ = DecodeCutover(p)
		_, _ = DecodeFreeze(p)
	})
}

// FuzzUnmarshalVO fuzzes the verification-object decoder with mutations
// of real VOs — both range VOs and aggregate VOs — plus raw garbage.
// UnmarshalVO parses bytes a malicious provider or router fully controls,
// so it must never panic and anything it accepts must survive a marshal
// round-trip.
func FuzzUnmarshalVO(f *testing.F) {
	ds, err := workload.Generate(workload.UNF, 400, 19)
	if err != nil {
		f.Fatal(err)
	}
	owner, err := tom.NewOwner()
	if err != nil {
		f.Fatal(err)
	}
	p := tom.NewProvider(pagestore.NewMem())
	if err := p.Load(ds.Records, owner); err != nil {
		f.Fatal(err)
	}
	for _, q := range workload.Queries(3, workload.DefaultExtent, 20) {
		_, vo, _, err := p.Query(q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(vo.Marshal())
		avo, _, err := p.Aggregate(q)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(avo.Marshal())
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		vo, err := mbtree.UnmarshalVO(data)
		if err != nil {
			return
		}
		enc := vo.Marshal()
		back, err := mbtree.UnmarshalVO(enc)
		if err != nil {
			t.Fatalf("re-unmarshal of a marshaled VO: %v", err)
		}
		if !bytes.Equal(back.Marshal(), enc) {
			t.Fatal("VO marshal round-trip is not a fixed point")
		}
	})
}
