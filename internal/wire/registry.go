package wire

import (
	"fmt"
	"strconv"

	"sae/internal/record"
)

// capability names one thing a party can do. A role — SP, TE, primary,
// replica — is nothing but the set of capabilities its party value has
// (see party.has); the registry says which one each request frame needs.
type capability uint8

const (
	capNone      capability = iota // no party serves it: responses, the router's cutover
	capShardMap                    // the shard attestation every party server carries
	capSP                          // SP structures: B+-tree + heap file
	capTE                          // TE structures: XB-Tree
	capApply                       // apply(ops): a write path
	capView                        // a core.View: SP + TE at one commit boundary
	capHub                         // a replication hub
	capLifecycle                   // the reshard lifecycle gate
)

// frameSpec is one row of the frame registry: the frame's name and, for a
// request frame, the capability it needs and HOW it is served. Exactly
// one of group/own is set on a built-in request row:
//
//   - group rows carry one range as payload and never wait on anything
//     but CPU. The connection's lane serves all frames of the row that
//     arrived in one read wakeup as ONE provider pass — one lock, grouped
//     descents, one heap fetch — for any n ≥ 1. An error rejects the whole
//     group, which is then re-served as groups of one, so a singleton's
//     error is exactly that request's error frame.
//   - own rows run on their own goroutine because they may block (a write
//     waits for its group's fsync, a freeze for the committer to drain, a
//     snapshot ships a whole shard) or are not worth grouping (the
//     handshake). Served on a lane they would stall every other
//     connection of that lane behind the wait.
type frameSpec struct {
	Name string
	need capability
	// span marks rows whose range must stay inside the server's shard
	// span (checked per frame at dispatch, before grouping).
	span  bool
	group func(s *Server, l *lane, ids []uint32, qs []record.Range) error
	own   func(s *Server, req Frame, rb *RespBuf) Frame
}

// frameRegistry is the single authoritative table of every message type
// the protocol defines, indexed by frame number: the name (README.md
// documents the same map for operators reading packet traces), and for
// request frames the serving row the one party server dispatches
// through. A test asserts the table is dense but for the retired numbers
// (see registry_test.go); a reused number does not compile. New frames
// MUST be added here.
//
// Retired, never reused: 5-6 were the single-update frames MsgInsert and
// MsgDelete, which a batch of one replaced; 11-14 were the
// many-ranges-in-one-frame pairs MsgBatchQuery/MsgBatchResult and
// MsgBatchVT/MsgBatchVTResult, which pipelined per-query frames replaced;
// 9-10, 17 and 24-26 carried networked TOM — its range query and
// aggregate query with their answers, and the router's stitched
// per-shard answers to both — which nothing deployed: TOM is the paper's
// in-process cost baseline (package tom), not a second wire protocol.
// Their empty rows hold the numbers, so a peer still sending one is
// refused with CannotHandle instead of being answered as some newer frame.
var frameRegistry = [...]frameSpec{
	MsgQuery:             {Name: "Query", need: capSP, group: serveQuery},
	MsgResult:            {Name: "Result"},
	MsgVTRequest:         {Name: "VTRequest", need: capTE, group: serveVT},
	MsgVT:                {Name: "VT"},
	5:                    {}, // retired
	6:                    {}, // retired
	MsgAck:               {Name: "Ack"},
	MsgErr:               {Name: "Err"},
	9:                    {}, // retired
	10:                   {}, // retired
	11:                   {}, // retired
	12:                   {}, // retired
	13:                   {}, // retired
	14:                   {}, // retired
	MsgShardMapReq:       {Name: "ShardMapReq", need: capShardMap, own: serveShardMap},
	MsgShardMap:          {Name: "ShardMap"},
	17:                   {}, // retired
	MsgBatchInsert:       {Name: "BatchInsert", need: capApply, own: serveWrite},
	MsgBatchDelete:       {Name: "BatchDelete", need: capApply, own: serveWrite},
	MsgAggQuery:          {Name: "AggQuery", need: capSP, group: serveAggQuery},
	MsgAggResult:         {Name: "AggResult"},
	MsgAggTokenReq:       {Name: "AggTokenReq", need: capTE, group: serveAggToken},
	MsgAggToken:          {Name: "AggToken"},
	24:                   {}, // retired
	25:                   {}, // retired
	26:                   {}, // retired
	MsgGenStampReq:       {Name: "GenStampReq", need: capView, own: serveGenStamp},
	MsgGenStamp:          {Name: "GenStamp"},
	MsgReplicaSnapReq:    {Name: "ReplicaSnapReq", need: capHub, own: serveReplicaSnap},
	MsgReplicaSnap:       {Name: "ReplicaSnap"},
	MsgReplicaPull:       {Name: "ReplicaPull", need: capHub, own: serveReplicaPull},
	MsgReplicaGroups:     {Name: "ReplicaGroups"},
	MsgVerifiedQuery:     {Name: "VerifiedQuery", need: capView, span: true, group: serveVerified},
	MsgVerifiedResult:    {Name: "VerifiedResult"},
	MsgPlanUpdate:        {Name: "PlanUpdate", need: capLifecycle, own: servePlanUpdate},
	MsgFreeze:            {Name: "Freeze", need: capLifecycle, own: serveFreeze},
	MsgThaw:              {Name: "Thaw", need: capLifecycle, own: serveThaw},
	MsgRetire:            {Name: "Retire", need: capLifecycle, own: serveRetire},
	MsgReshardCutover:    {Name: "ReshardCutover"}, // a router's custom Handler answers it
	MsgVerifiedAgg:       {Name: "VerifiedAgg", need: capView, span: true, group: serveVerifiedAgg},
	MsgVerifiedAggResult: {Name: "VerifiedAggResult"},
}

// FrameName returns the registered name of a message type, for logs and
// error strings; unknown types render as "Msg(<n>)".
func FrameName(t MsgType) string {
	if int(t) < len(frameRegistry) && frameRegistry[t].Name != "" {
		return frameRegistry[t].Name
	}
	return "Msg(" + strconv.Itoa(int(t)) + ")"
}

// CannotHandle is the error every role answers a frame it does not serve
// with, naming both the role and the frame.
func CannotHandle(role string, t MsgType) error {
	return fmt.Errorf("%w: %s cannot handle %s (%d)", ErrProtocol, role, FrameName(t), t)
}
