package wire

import (
	"encoding/binary"
	"fmt"

	"sae/internal/digest"
	"sae/internal/wal"
)

// replicaFlagSnapshotNeeded in a MsgReplicaGroups flags byte tells the
// tailer its sequence has fallen out of the primary's retention window:
// re-bootstrap from a snapshot before pulling again.
const replicaFlagSnapshotNeeded = byte(1 << 0)

// EncodeReplicaPull builds a MsgReplicaPull payload: the tailer's current
// sequence plus the most groups it wants in one response (0 = no limit).
func EncodeReplicaPull(after uint64, max int) []byte {
	var out [12]byte
	binary.BigEndian.PutUint64(out[0:8], after)
	binary.BigEndian.PutUint32(out[8:12], uint32(max))
	return out[:]
}

// DecodeReplicaPull parses a MsgReplicaPull payload.
func DecodeReplicaPull(b []byte) (after uint64, max int, err error) {
	if len(b) != 12 {
		return 0, 0, fmt.Errorf("%w: replica pull payload of %d bytes", ErrProtocol, len(b))
	}
	return binary.BigEndian.Uint64(b[0:8]), int(binary.BigEndian.Uint32(b[8:12])), nil
}

// DecodeReplicaGroups parses a MsgReplicaGroups payload — the flags
// byte, then whole commit groups in their WAL frames — into the groups
// plus the snapshot-needed flag. The frames must decode to the last
// byte: a torn frame, a failed CRC or trailing bytes is ErrProtocol.
func DecodeReplicaGroups(b []byte) ([]wal.Group, bool, error) {
	if len(b) < 1 {
		return nil, false, fmt.Errorf("%w: empty replica groups payload", ErrProtocol)
	}
	gs, n := wal.DecodeGroups(b[1:])
	if n != len(b)-1 {
		return nil, false, fmt.Errorf("%w: replica groups break at byte %d of %d", ErrProtocol, n, len(b)-1)
	}
	return gs, b[0]&replicaFlagSnapshotNeeded != 0, nil
}

// DecodeReplicaSnap parses a MsgReplicaSnap payload: the primary's shard
// attestation (index + partition plan, which the replica re-serves so
// clients and routers see a consistent topology) followed by a
// sequence-stamped record dump in the checkpoint's byte format, which is
// returned as it is, aliasing b, for core.LoadSnapshot to check and load.
func DecodeReplicaSnap(b []byte) (ShardInfo, []byte, error) {
	if len(b) < 4 {
		return ShardInfo{}, nil, fmt.Errorf("%w: truncated replica snapshot", ErrProtocol)
	}
	silen := int(binary.BigEndian.Uint32(b[0:4]))
	b = b[4:]
	if silen > len(b) {
		return ShardInfo{}, nil, fmt.Errorf("%w: shard attestation of %d bytes in %d payload bytes", ErrProtocol, silen, len(b))
	}
	si, err := DecodeShardInfo(b[:silen])
	if err != nil {
		return ShardInfo{}, nil, err
	}
	return si, b[silen:], nil
}

// DecodeVerifiedResult parses a MsgVerifiedResult payload into its plan
// epoch, generation stamp, verification token and the still-encoded
// record section (an EncodeRecords payload aliasing b), which verifying
// callers hash in place before materializing.
func DecodeVerifiedResult(b []byte) (epoch, seq uint64, vt digest.Digest, recsRaw []byte, err error) {
	if len(b) < 16+digest.Size+4 {
		return 0, 0, digest.Zero, nil, fmt.Errorf("%w: truncated verified result (%d bytes)", ErrProtocol, len(b))
	}
	epoch = binary.BigEndian.Uint64(b[0:8])
	seq = binary.BigEndian.Uint64(b[8:16])
	vt = digest.FromBytes(b[16 : 16+digest.Size])
	return epoch, seq, vt, b[16+digest.Size:], nil
}
