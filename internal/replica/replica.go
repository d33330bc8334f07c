package replica

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/record"
	"sae/internal/wal"
)

// ErrGap reports that the pulled group stream does not continue the
// replica's sequence — groups were lost (or the hub's retention window
// moved past us) and the replica must re-bootstrap from a snapshot.
var ErrGap = errors.New("replica: group stream gap")

// Replica is one read replica of a shard's SAE primary: a full SP+TE
// pair rebuilt from a sequence-stamped snapshot and advanced by whole
// commit groups. Construction and group application run the exact code
// the primary's own crash recovery runs (core.LoadSnapshot +
// core.ApplyGroup), which is what makes replica answers bit-identical to
// the primary's at the same generation stamp.
//
// The replica-level lock orders group application against verified
// serving: ServeVerified returns records, a token and a stamp that all
// belong to one group boundary, never a mid-apply mixture.
type Replica struct {
	mu  sync.RWMutex
	sys *core.System
	seq uint64
}

// NewFromSnapshot builds a replica from a snapshot's bytes: its record
// set, the generation stamp it was cut at and the owner's fresh-id
// watermark, loaded by core.LoadSnapshot.
func NewFromSnapshot(b []byte) (*Replica, error) {
	sys, seq, err := core.LoadSnapshot(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, fmt.Errorf("replica: loading snapshot: %w", err)
	}
	return &Replica{sys: sys, seq: seq}, nil
}

// Reset replaces the replica's whole state with a fresh snapshot — the
// catch-up path when the hub's retention window has moved past us.
// Serving continues on the old state until the swap, then atomically
// jumps to the new generation; a snapshot that does not load changes
// nothing.
func (r *Replica) Reset(b []byte) error {
	// Build outside the lock (bulkload is the expensive part), swap under
	// it.
	nr, err := NewFromSnapshot(b)
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.sys, r.seq = nr.sys, nr.seq
	r.mu.Unlock()
	return nil
}

// ApplyGroups advances the replica by whole commit groups. Groups at or
// below the replica's sequence are skipped (idempotent re-delivery); a
// group that does not continue the sequence returns ErrGap and applies
// nothing further. A non-gap apply error leaves the replica torn between
// parties and the caller must Reset from a snapshot.
func (r *Replica) ApplyGroups(groups []wal.Group) error {
	if len(groups) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ctx := exec.NewContext()
	for _, g := range groups {
		if g.Seq <= r.seq {
			continue
		}
		if g.Seq != r.seq+1 {
			return fmt.Errorf("%w: at %d, next group is %d", ErrGap, r.seq, g.Seq)
		}
		if err := core.ApplyGroup(ctx, r.sys.Owner, r.sys.SP, r.sys.TE, g.Ops); err != nil {
			return fmt.Errorf("replica: applying group %d: %w", g.Seq, err)
		}
		r.seq = g.Seq
	}
	return nil
}

// Seq returns the replica's generation stamp: the sequence of the last
// commit group folded into its state.
func (r *Replica) Seq() uint64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.seq
}

// Count returns the replica's record count.
func (r *Replica) Count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sys.SP.Count()
}

// SP exposes the replica's service provider for plain (non-stamped) read
// serving. Plain reads are individually safe against concurrent group
// application (the SP has its own lock) but a records+token pair fetched
// as two plain requests may straddle a group boundary — use
// ServeVerified when the pair must be atomic. The lock covers only the
// pointer read (Reset swaps the parties wholesale).
func (r *Replica) SP() *core.ServiceProvider {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sys.SP
}

// TE exposes the replica's trusted entity for plain token serving; see SP
// for the consistency caveat.
func (r *Replica) TE() *core.TrustedEntity {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sys.TE
}

// View is the replica's read view: f runs under the replica lock, over
// the SP/TE pair at one group boundary, so what it reads can never be a
// mid-apply mixture. It is the same view a DurableSystem offers, which is
// what lets one wire server row serve primaries and replicas alike.
func (r *Replica) View() core.View {
	return func(f func(uint64, *core.ServiceProvider, *core.TrustedEntity) error) error {
		r.mu.RLock()
		defer r.mu.RUnlock()
		return f(r.seq, r.sys.SP, r.sys.TE)
	}
}

// ServeVerified answers one range query atomically at a single group
// boundary: the emitted records, the verification token and the returned
// generation stamp are mutually consistent even while the feed is
// applying groups. The triple verifies with the unchanged XOR check.
func (r *Replica) ServeVerified(q record.Range, emit func(*record.Record) error) (n int, vt digest.Digest, seq uint64, err error) {
	return r.View().ServeVerified(q, emit)
}

// Query is ServeVerified with materialized records (tests, tools).
func (r *Replica) Query(q record.Range) ([]record.Record, digest.Digest, uint64, error) {
	var recs []record.Record
	_, vt, seq, err := r.ServeVerified(q, func(rec *record.Record) error {
		recs = append(recs, *rec)
		return nil
	})
	return recs, vt, seq, err
}
