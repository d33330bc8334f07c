package wal

import (
	"encoding/binary"
	"fmt"

	"sae/internal/record"
)

// Wire form for shipping commit groups between processes (the replica
// feed). It reuses the log's own op kinds but drops the per-frame CRC and
// torn-tail machinery: the transport (TCP framing plus the replica's
// sequence check) already delivers whole groups or nothing.
//
//	op    = kind(1) ++ payload          insert: 500-byte record
//	                                    delete: id(8) ++ key(4)
//	group = seq(8) ++ count(4) ++ op*

const deletePayloadSize = 12

// AppendOp appends one op in wire form to buf.
func AppendOp(buf []byte, op Op) ([]byte, error) {
	switch op.Kind {
	case OpInsert:
		buf = append(buf, byte(OpInsert))
		return op.Rec.AppendBinary(buf), nil
	case OpDelete:
		buf = append(buf, byte(OpDelete))
		var p [deletePayloadSize]byte
		binary.BigEndian.PutUint64(p[0:8], uint64(op.ID))
		binary.BigEndian.PutUint32(p[8:12], uint32(op.Key))
		return append(buf, p[:]...), nil
	default:
		return nil, fmt.Errorf("wal: encoding unknown op kind %d", op.Kind)
	}
}

// DecodeOp parses one wire-form op and returns the remaining bytes.
func DecodeOp(b []byte) (Op, []byte, error) {
	if len(b) < 1 {
		return Op{}, nil, fmt.Errorf("wal: truncated op")
	}
	switch OpKind(b[0]) {
	case OpInsert:
		if len(b) < 1+record.Size {
			return Op{}, nil, fmt.Errorf("wal: truncated insert op (%d bytes)", len(b))
		}
		r, err := record.Unmarshal(b[1 : 1+record.Size])
		if err != nil {
			return Op{}, nil, fmt.Errorf("wal: decoding insert op: %w", err)
		}
		return InsertOp(r), b[1+record.Size:], nil
	case OpDelete:
		if len(b) < 1+deletePayloadSize {
			return Op{}, nil, fmt.Errorf("wal: truncated delete op (%d bytes)", len(b))
		}
		id := record.ID(binary.BigEndian.Uint64(b[1:9]))
		key := record.Key(binary.BigEndian.Uint32(b[9:13]))
		return DeleteOp(id, key), b[1+deletePayloadSize:], nil
	default:
		return Op{}, nil, fmt.Errorf("wal: decoding unknown op kind %d", b[0])
	}
}

// GroupWireSize is the length of ops' group in wire form.
func GroupWireSize(ops []Op) int {
	n := 12
	for i := range ops {
		if ops[i].Kind == OpInsert {
			n += 1 + record.Size
		} else {
			n += 1 + deletePayloadSize
		}
	}
	return n
}

// AppendGroupWire appends one whole commit group in wire form to buf.
func AppendGroupWire(buf []byte, g Group) ([]byte, error) {
	var hdr [12]byte
	binary.BigEndian.PutUint64(hdr[0:8], g.Seq)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(g.Ops)))
	buf = append(buf, hdr[:]...)
	var err error
	for i := range g.Ops {
		if buf, err = AppendOp(buf, g.Ops[i]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeGroupWire parses one wire-form group and returns the remaining
// bytes.
func DecodeGroupWire(b []byte) (Group, []byte, error) {
	if len(b) < 12 {
		return Group{}, nil, fmt.Errorf("wal: truncated group header (%d bytes)", len(b))
	}
	g := Group{Seq: binary.BigEndian.Uint64(b[0:8])}
	n := binary.BigEndian.Uint32(b[8:12])
	b = b[12:]
	// Every op costs at least one kind byte plus a delete payload; an
	// implausible count is rejected before it can drive an allocation.
	if int(n) > len(b) {
		return Group{}, nil, fmt.Errorf("wal: implausible op count %d for %d payload bytes", n, len(b))
	}
	g.Ops = make([]Op, 0, n)
	for i := uint32(0); i < n; i++ {
		op, rest, err := DecodeOp(b)
		if err != nil {
			return Group{}, nil, fmt.Errorf("wal: group %d op %d: %w", g.Seq, i, err)
		}
		g.Ops = append(g.Ops, op)
		b = rest
	}
	return g, b, nil
}
