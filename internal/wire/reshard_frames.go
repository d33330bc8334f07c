package wire

import (
	"encoding/binary"
	"fmt"
	"time"

	"sae/internal/shard"
)

// Reshard control-plane codecs: the payloads of MsgFreeze and
// MsgReshardCutover. (MsgPlanUpdate reuses the EncodeShardInfo payload,
// MsgThaw and MsgRetire carry no payload.)

// CutoverShard lists one shard's upstream endpoints under the new
// topology: the SP/primary addresses serving its span and the TE
// addresses attesting it.
type CutoverShard struct {
	SPs []string
	TEs []string
}

// Cutover is the MsgReshardCutover payload: the successor plan (whose
// epoch must be strictly higher than the router's current one) plus the
// per-shard endpoint lists to rebuild the router's upstream sets from.
type Cutover struct {
	Plan   shard.Plan
	Shards []CutoverShard
}

func appendAddrList(out []byte, addrs []string) []byte {
	var n [2]byte
	binary.BigEndian.PutUint16(n[:], uint16(len(addrs)))
	out = append(out, n[:]...)
	for _, a := range addrs {
		binary.BigEndian.PutUint16(n[:], uint16(len(a)))
		out = append(out, n[:]...)
		out = append(out, a...)
	}
	return out
}

func decodeAddrList(b []byte) ([]string, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("%w: truncated cutover address count", ErrProtocol)
	}
	n := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return nil, nil, fmt.Errorf("%w: truncated cutover address length", ErrProtocol)
		}
		l := int(binary.BigEndian.Uint16(b[0:2]))
		b = b[2:]
		if len(b) < l {
			return nil, nil, fmt.Errorf("%w: truncated cutover address", ErrProtocol)
		}
		addrs = append(addrs, string(b[:l]))
		b = b[l:]
	}
	return addrs, b, nil
}

// EncodeCutover serializes a cutover order. The shard list length must
// match the plan's shard count; the caller is the reshard coordinator,
// which builds both from the same successor topology.
func EncodeCutover(c Cutover) ([]byte, error) {
	if len(c.Shards) != c.Plan.Shards() {
		return nil, fmt.Errorf("%w: cutover lists %d shards under a %d-shard plan",
			ErrProtocol, len(c.Shards), c.Plan.Shards())
	}
	out := c.Plan.Marshal()
	for _, s := range c.Shards {
		if len(s.SPs) == 0 || len(s.TEs) == 0 {
			return nil, fmt.Errorf("%w: cutover shard with no SP or TE endpoints", ErrProtocol)
		}
		out = appendAddrList(out, s.SPs)
		out = appendAddrList(out, s.TEs)
	}
	return out, nil
}

// DecodeCutover parses a MsgReshardCutover payload.
func DecodeCutover(b []byte) (Cutover, error) {
	plan, rest, err := shard.UnmarshalPlan(b)
	if err != nil {
		return Cutover{}, fmt.Errorf("%w: cutover plan: %v", ErrProtocol, err)
	}
	c := Cutover{Plan: plan, Shards: make([]CutoverShard, plan.Shards())}
	for i := range c.Shards {
		if c.Shards[i].SPs, rest, err = decodeAddrList(rest); err != nil {
			return Cutover{}, err
		}
		if c.Shards[i].TEs, rest, err = decodeAddrList(rest); err != nil {
			return Cutover{}, err
		}
		if len(c.Shards[i].SPs) == 0 || len(c.Shards[i].TEs) == 0 {
			return Cutover{}, fmt.Errorf("%w: cutover shard %d has no SP or TE endpoints", ErrProtocol, i)
		}
	}
	if len(rest) != 0 {
		return Cutover{}, fmt.Errorf("%w: %d trailing bytes after cutover", ErrProtocol, len(rest))
	}
	return c, nil
}

// EncodeFreeze serializes a MsgFreeze payload: the freeze TTL in
// milliseconds. A frozen primary thaws itself when the TTL expires, so a
// coordinator that dies mid-cutover cannot leave writes blocked forever.
func EncodeFreeze(ttl time.Duration) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(ttl.Milliseconds()))
	return b[:]
}

// DecodeFreeze parses a MsgFreeze payload.
func DecodeFreeze(b []byte) (time.Duration, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("%w: freeze payload of %d bytes", ErrProtocol, len(b))
	}
	return time.Duration(binary.BigEndian.Uint64(b)) * time.Millisecond, nil
}

// The reshard coordinator's control verbs, available on every client
// connection type (they share the underlying conn).

// PlanUpdate tells a primary to adopt a new shard attestation; the
// server accepts only a strictly higher plan epoch.
func (c *Conn) PlanUpdate(si ShardInfo) error {
	return c.expectAck(MsgPlanUpdate, EncodeShardInfo(si))
}

// Freeze blocks the primary's write commits for at most ttl; the ack
// means every in-flight commit group has drained into the WAL stream.
func (c *Conn) Freeze(ttl time.Duration) error {
	return c.expectAck(MsgFreeze, EncodeFreeze(ttl))
}

// Thaw releases a freeze.
func (c *Conn) Thaw() error {
	return c.expectAck(MsgThaw, nil)
}

// Retire permanently fences a migrated-away shard off from clients.
func (c *Conn) Retire() error {
	return c.expectAck(MsgRetire, nil)
}

// ReshardCutover orders a router to swap to the successor topology.
func (c *Conn) ReshardCutover(cut Cutover) error {
	p, err := EncodeCutover(cut)
	if err != nil {
		return err
	}
	return c.expectAck(MsgReshardCutover, p)
}
