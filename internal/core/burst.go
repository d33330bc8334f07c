package core

import (
	"fmt"

	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/heapfile"
	"sae/internal/record"
)

// Burst serving is the ONE streaming serve path: the wire server hands a
// lane's group of n ≥ 1 pipelined queries to the SP/TE as a single unit —
// one lock acquisition, the index descents planned back to back into a
// shared RID arena, the heap runs served by one streaming fetch, and
// (client-side) the whole burst's digests folded through one worker
// dispatch. A lone request is a burst of one; so are the per-request
// verbs (GenerateVTCtx, AggregateCtx, AggTokenCtx, VerifyEncoded). Every
// query still runs under its OWN request context, so per-query access
// counts are bit-identical to the materializing QueryCtx reference — the
// burst parity tests enforce results, tokens and counts alike.

// BurstScratch holds the reusable plan buffers for one serve lane. A lane
// serves one burst at a time on one goroutine, so the scratch needs no
// locking; steady-state bursts reuse the arena and offset slices and
// allocate nothing. View.ServeBurst also parks its arguments here for
// the length of the call and runs the scratch's own serve func, built on
// the first burst, so a verified burst builds no closure either.
type BurstScratch struct {
	arena []heapfile.RID
	offs  []int
	runs  [][]heapfile.RID
	los   []record.Key
	his   []record.Key

	// View.ServeBurst's arguments and result, valid during the call.
	ctxs  []*exec.Context
	qs    []record.Range
	vts   []digest.Digest
	emit  func(qi int, enc []byte) error
	seq   uint64
	serve func(seq uint64, sp *ServiceProvider, te *TrustedEntity) error
}

// Planned is the number of records the burst being served has planned.
// An emit may read it: the whole burst is planned before its first run
// is emitted.
func (sc *BurstScratch) Planned() int { return len(sc.arena) }

// ServeBurstCtx serves a burst of range queries straight from the heap
// file's page bytes: qs[qi] runs under ctxs[qi], and emit(qi, enc)
// receives query qi's records in key order, query by query, as runs of
// back-to-back canonical encodings (len(enc) is a multiple of
// record.Size; a clustered result is one run per heap page). enc is
// borrowed from the page itself and valid only for the duration of the
// call: updates rewrite pages in place once the read lock is released,
// so emit copies what it keeps. The whole burst holds the SP read lock
// once, plans all descents into sc's shared arena, and serves every heap
// run through one heapfile.ServeBurstCtx call. A tampering SP falls back
// to the materializing per-query path, encoding each record it returns,
// so attack experiments behave identically on every entry point. An
// error aborts the burst (callers that need per-query error isolation
// re-serve as bursts of one; the wire server does).
func (sp *ServiceProvider) ServeBurstCtx(ctxs []*exec.Context, qs []record.Range, sc *BurstScratch, emit func(qi int, enc []byte) error) error {
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	if sp.tamper != nil {
		sc.arena = sc.arena[:0]
		var enc []byte
		for qi := range qs {
			recs, _, err := sp.queryLocked(ctxs[qi], qs[qi])
			if err != nil {
				return err
			}
			for i := range recs {
				enc = recs[i].AppendBinary(enc[:0])
				if err := emit(qi, enc); err != nil {
					return err
				}
			}
		}
		return nil
	}
	sc.los = sc.los[:0]
	sc.his = sc.his[:0]
	for _, q := range qs {
		sc.los = append(sc.los, q.Lo)
		sc.his = append(sc.his, q.Hi)
	}
	var err error
	sc.arena, sc.offs, err = sp.index.RangeBurstCtx(ctxs, sc.los, sc.his, sc.arena[:0], sc.offs[:0])
	if err != nil {
		return fmt.Errorf("core: SP burst range scan: %w", err)
	}
	sc.runs = sc.runs[:0]
	for qi := range qs {
		sc.runs = append(sc.runs, sc.arena[sc.offs[qi]:sc.offs[qi+1]])
	}
	if err := sp.heap.ServeBurstCtx(ctxs, sc.runs, emit); err != nil {
		return fmt.Errorf("core: SP burst record serve: %w", err)
	}
	return nil
}

// GenerateVTBurst computes the verification tokens for a burst of ranges
// under ONE read-lock acquisition, each descent charged to its query's
// own context. vts[i] receives query i's token and must be at least
// len(qs) long.
func (te *TrustedEntity) GenerateVTBurst(ctxs []*exec.Context, qs []record.Range, vts []digest.Digest) error {
	te.mu.RLock()
	defer te.mu.RUnlock()
	for i, q := range qs {
		vt, err := te.tree.GenerateVTCtx(ctxs[i], q.Lo, q.Hi)
		if err != nil {
			return fmt.Errorf("core: TE token generation: %w", err)
		}
		vts[i] = vt
	}
	return nil
}

// View runs f over an SP/TE pair pinned at one commit boundary: while f
// runs no commit group can apply, so everything f reads belongs to the
// single generation stamp it is handed. A DurableSystem's view holds the
// commit lock shared; a replica's holds its apply lock. Either calls f
// directly under its lock and builds nothing per call, so a view costs
// a read verb no allocation.
type View func(f func(seq uint64, sp *ServiceProvider, te *TrustedEntity) error) error

// ServeBurst answers a group of n ≥ 1 range queries atomically at a
// single commit boundary: the emitted records, the tokens written to
// vts and the returned generation stamp all describe the same group
// sequence, even while a concurrent write burst is advancing the system.
// Query qi's SP scan and TE descent are both charged to ctxs[qi]. The
// arguments ride in sc, whose serve func is built once per scratch, so
// a steady-state burst allocates nothing here.
func (v View) ServeBurst(ctxs []*exec.Context, qs []record.Range, sc *BurstScratch, vts []digest.Digest, emit func(qi int, enc []byte) error) (seq uint64, err error) {
	if sc.serve == nil {
		sc.serve = sc.serveView
	}
	sc.ctxs, sc.qs, sc.vts, sc.emit = ctxs, qs, vts, emit
	err = v(sc.serve)
	seq = sc.seq
	sc.ctxs, sc.qs, sc.vts, sc.emit = nil, nil, nil, nil
	return seq, err
}

// serveView is the body View.ServeBurst runs under the view's lock.
func (sc *BurstScratch) serveView(seq uint64, sp *ServiceProvider, te *TrustedEntity) error {
	sc.seq = seq
	if err := sp.ServeBurstCtx(sc.ctxs, sc.qs, sc, sc.emit); err != nil {
		return err
	}
	return te.GenerateVTBurst(sc.ctxs, sc.qs, sc.vts)
}

// ServeVerified is ServeBurst at n = 1 with a fresh request context: a
// client (or router) that receives the (records, token, stamp) triple
// can verify the records against the token with the ordinary XOR check
// and knows exactly which generation it is looking at. Each record is
// decoded into one scratch record, which emit must not retain.
func (v View) ServeVerified(q record.Range, emit func(*record.Record) error) (n int, vt digest.Digest, seq uint64, err error) {
	var (
		vts [1]digest.Digest
		sc  BurstScratch
		r   record.Record
	)
	seq, err = v.ServeBurst([]*exec.Context{exec.NewContext()}, []record.Range{q}, &sc, vts[:],
		func(_ int, enc []byte) error {
			n += len(enc) / record.Size
			return record.EachEncoded(enc, &r, emit)
		})
	if err != nil {
		return 0, digest.Zero, 0, err
	}
	return n, vts[0], seq, nil
}

// VerifyEncodedBurst is the one wire-form client check: it verifies a
// burst of results still in canonical wire form (encs[i] is n
// back-to-back record encodings) against their tokens without
// materializing a single record. The range and order checks peek keys in
// place and run inline (branch-and-compare, not crypto); then every
// payload is hashed where it lies in its frame, all of them through ONE
// digest.XORFoldWireBurst dispatch that splits the burst's records, not
// its payloads, across the workers. Accept/reject decisions are
// identical to Client.Verify per query; the first failing query aborts
// with an error naming its index. sums is scratch for the per-query
// folds and is reused via the usual [:0] convention (pass nil to
// allocate).
func (vp VerifyPool) VerifyEncodedBurst(qs []record.Range, encs [][]byte, vts []digest.Digest, sums []digest.Digest) ([]digest.Digest, error) {
	for qi, enc := range encs {
		q := qs[qi]
		if len(enc)%record.Size != 0 {
			return sums, fmt.Errorf("%w: query %d payload of %d bytes is not whole records",
				ErrVerificationFailed, qi, len(enc))
		}
		prev := q.Lo
		for off := 0; off < len(enc); off += record.Size {
			k := record.WireKey(enc[off:])
			if !q.Contains(k) {
				return sums, fmt.Errorf("%w: query %d record id=%d key=%d outside %v",
					ErrVerificationFailed, qi, record.WireID(enc[off:]), k, q)
			}
			if k < prev {
				return sums, fmt.Errorf("%w: query %d result out of key order at record %d",
					ErrVerificationFailed, qi, off/record.Size)
			}
			prev = k
		}
	}
	for len(sums) < len(encs) {
		sums = append(sums, digest.Zero)
	}
	sums = sums[:len(encs)]
	digest.XORFoldWireBurst(sums, encs, vp.workers)
	for qi := range encs {
		if sums[qi] != vts[qi] {
			return sums, fmt.Errorf("%w: digest XOR mismatch for %v (query %d)",
				ErrVerificationFailed, qs[qi], qi)
		}
	}
	return sums, nil
}
