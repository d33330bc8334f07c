// Package core implements SAE — Separating Authentication from query
// Execution — the paper's outsourcing model. Four parties cooperate:
//
//   - DataOwner (DO): owns relation R; ships it (and updates) to the SP and
//     the TE, and otherwise does nothing.
//   - ServiceProvider (SP): stores R in a conventional DBMS (clustered heap
//     file + plain B+-tree) and answers range queries with just the result —
//     no authentication structures, no VO.
//   - TrustedEntity (TE): keeps one (id, key, digest) tuple per record in an
//     XB-Tree and answers a verification request with a 20-byte token (VT):
//     the XOR of the digests of the true result.
//   - Client: queries the SP and the TE in parallel, hashes the records it
//     received, XORs the digests and compares with the VT. A match proves
//     the result sound and complete (finding sets DS, IS with DS⊕ == IS⊕ is
//     computationally infeasible).
package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sae/internal/bptree"
	"sae/internal/bufpool"
	"sae/internal/costmodel"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/heapfile"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/wal"
	"sae/internal/xbtree"
)

// VTSize is the verification token's size in bytes: one digest, regardless
// of the result cardinality. (Compare with TOM's VOs in package mbtree.)
const VTSize = digest.Size

// ErrVerificationFailed is returned by the client when the SP's result does
// not match the TE's token.
var ErrVerificationFailed = errors.New("core: result failed verification against the TE token")

// Tamper mutates a result set before it leaves a malicious SP. The identity
// (nil) tamper models an honest SP.
type Tamper func([]record.Record) []record.Record

// DropTamper omits the i-th result record (completeness attack: DS ≠ ∅).
func DropTamper(i int) Tamper {
	return func(rs []record.Record) []record.Record {
		if i < 0 || i >= len(rs) {
			return rs
		}
		out := make([]record.Record, 0, len(rs)-1)
		out = append(out, rs[:i]...)
		return append(out, rs[i+1:]...)
	}
}

// InjectTamper appends a bogus record (soundness attack: IS ≠ ∅).
func InjectTamper(fake record.Record) Tamper {
	return func(rs []record.Record) []record.Record {
		out := make([]record.Record, 0, len(rs)+1)
		out = append(out, rs...)
		return append(out, fake)
	}
}

// ModifyTamper flips payload bytes of the i-th record (equivalent to one
// drop plus one inject).
func ModifyTamper(i int) Tamper {
	return func(rs []record.Record) []record.Record {
		if i < 0 || i >= len(rs) {
			return rs
		}
		out := append([]record.Record(nil), rs...)
		out[i].Payload[0] ^= 0xFF
		return out
	}
}

// ServiceProvider executes queries on a conventional DBMS substrate. It is
// safe for concurrent queries interleaved with updates.
type ServiceProvider struct {
	mu        sync.RWMutex
	store     *pagestore.Counting
	cache     bufpool.Cache // decoded B+-tree nodes (the heap is uncached)
	heap      *heapfile.File
	index     *bptree.Tree
	catalog   heapfile.Catalog // which ids are live, where, under which key
	tamper    Tamper
	aggTamper AggTamper
}

// NewServiceProvider returns an SP backed by the given page store. Its
// decoded-node cache keeps the B+-tree's nodes and charges every hit, so
// wall-clock time drops while the paper's node-access accounting stays
// exact. The heap file serves records from their page bytes and is never
// cached.
func NewServiceProvider(store pagestore.Store) *ServiceProvider {
	return &ServiceProvider{store: pagestore.NewCounting(store)}
}

// CacheStats returns the decoded-node cache counters.
func (sp *ServiceProvider) CacheStats() bufpool.Stats { return sp.cache.Stats() }

// Load receives the owner's initial dataset (sorted by key): LoadFrom
// over the records' encodings, each encoded once.
func (sp *ServiceProvider) Load(records []record.Record) error {
	return sp.LoadFrom(len(records), record.ReaderOf(records))
}

// LoadFrom receives the owner's initial dataset as the canonical
// encodings of n records in key order, streamed by src. Each record's
// bytes are read once, into its heap slot; the id catalog and the
// B+-tree entries are read from the 12-byte header of the filled slot. A
// dataset carrying one id twice, or out of key order, is refused.
func (sp *ServiceProvider) LoadFrom(n int, src io.Reader) error {
	_, err := sp.load(n, src)
	return err
}

// load is LoadFrom, also returning the largest id loaded.
func (sp *ServiceProvider) load(n int, src io.Reader) (maxID record.ID, err error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	catalog := heapfile.NewCatalog(n)
	entries := make([]bptree.Entry, 0, n)
	heap, err := heapfile.BuildFrom(sp.store, n, src, func(rid heapfile.RID, enc []byte) error {
		id, key := record.WireID(enc), record.WireKey(enc)
		maxID = max(maxID, id)
		entries = append(entries, bptree.Entry{Key: key, RID: rid})
		return catalog.Add(id, heapfile.Live{RID: rid, Key: key})
	})
	if err != nil {
		return 0, fmt.Errorf("core: SP loading heap: %w", err)
	}
	index, err := bptree.Bulkload(sp.store, entries)
	if err != nil {
		return 0, fmt.Errorf("core: SP loading index: %w", err)
	}
	index.UseCache(&sp.cache)
	sp.heap = heap
	sp.index = index
	sp.catalog = catalog
	return maxID, nil
}

// admit checks ops against the SP's catalog as changed by overlay, the
// ops already admitted into the same group, and records their effects in
// overlay (heapfile.Catalog.Admit).
func (sp *ServiceProvider) admit(overlay heapfile.Overlay, ops []wal.Op) error {
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	return sp.catalog.Admit(overlay, ops)
}

// keyOf returns the key a live id is indexed under.
func (sp *ServiceProvider) keyOf(id record.ID) (record.Key, bool) {
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	l, ok := sp.catalog.Get(id)
	return l.Key, ok
}

// Count returns the SP's live record count.
func (sp *ServiceProvider) Count() int {
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	return sp.catalog.Len()
}

// QueryCost splits a provider's query execution cost into its two phases:
// the index work (traversal plus leaf-level scan; for TOM this includes VO
// assembly) and the dataset-file fetch. The paper's Figure 6 contrast —
// SAE's B+-tree beating TOM's MB-Tree by 24-39% — lives in the Index
// component; the Fetch component is identical in both models because both
// return the same records.
type QueryCost struct {
	Index costmodel.Breakdown
	Fetch costmodel.Breakdown
}

// Total combines both phases.
func (qc QueryCost) Total() costmodel.Breakdown { return qc.Index.Add(qc.Fetch) }

// Query answers a range query with a fresh request context; see QueryCtx.
func (sp *ServiceProvider) Query(q record.Range) ([]record.Record, QueryCost, error) {
	return sp.QueryCtx(exec.NewContext(), q)
}

// QueryCtx answers a range query: B+-tree range scan, then a clustered
// fetch from the dataset file — exactly what a conventional DBMS does, with
// zero authentication overhead. The returned cost prices the node accesses
// of each phase.
//
// Costs are measured on the request context's own counters, never on the
// global store totals, so any number of queries may run concurrently under
// the read lock and each still gets exactly its own accesses. Phase CPU
// times are anchored per phase (fetchStart, not the query start), so the
// Fetch breakdown cannot double-count the index phase's wall clock.
func (sp *ServiceProvider) QueryCtx(ctx *exec.Context, q record.Range) ([]record.Record, QueryCost, error) {
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	return sp.queryLocked(ctx, q)
}

// queryLocked is the materializing SP query — the B+-tree range scan,
// then the clustered heap fetch — plus the tamper hook. The caller holds
// the read lock: ServeBurstCtx routes a tampering SP's burst through it
// so the hook sees each full result slice. It is the reference the
// streaming ServeBurstCtx is tested against, and the one body that
// prices the two phases separately (the Figure 6 split): each phase's
// accesses come from ctx's own counters, and its CPU time is anchored at
// the phase's own start, so Fetch cannot double-count the index phase's
// wall clock.
func (sp *ServiceProvider) queryLocked(ctx *exec.Context, q record.Range) ([]record.Record, QueryCost, error) {
	var qc QueryCost
	before := ctx.Stats()
	start := time.Now()
	rids, err := sp.index.RangeAppendCtx(ctx, q.Lo, q.Hi, nil)
	if err != nil {
		return nil, qc, fmt.Errorf("core: SP range scan: %w", err)
	}
	mid := ctx.Stats()
	fetchStart := time.Now()
	qc.Index = costmodel.Default.Measure(mid.Sub(before), fetchStart.Sub(start))
	recs, err := sp.heap.GetManyCtx(ctx, rids)
	if err != nil {
		return nil, qc, fmt.Errorf("core: SP record fetch: %w", err)
	}
	qc.Fetch = costmodel.Default.Measure(ctx.Stats().Sub(mid), time.Since(fetchStart))
	if sp.tamper != nil {
		recs = sp.tamper(recs)
	}
	return recs, qc, nil
}

// measured runs one request's work and prices it: the accesses f charged
// to ctx plus its wall time. The per-request verbs (GenerateVTCtx,
// AggregateCtx, AggTokenCtx) are their burst verb at n = 1 under it.
func measured(ctx *exec.Context, f func() error) (costmodel.Breakdown, error) {
	before := ctx.Stats()
	start := time.Now()
	if err := f(); err != nil {
		return costmodel.Breakdown{}, err
	}
	return costmodel.Default.Measure(ctx.Stats().Sub(before), time.Since(start)), nil
}

// ApplyBatchCtx is the SP's one write body: it applies a whole commit
// group under ONE lock acquisition — every insert and delete in order, on
// a single request context — and a single update is a group of one. Each
// op costs the same O(log n) accesses whatever the group's size; grouping
// changes when the lock is taken and how often ancillary work (digesting,
// signing, fsync) is dispatched, never what the structures contain. Its
// callers apply only groups the catalog admitted (see ApplyGroup); its
// error returns are a safety net, not the check.
func (sp *ServiceProvider) ApplyBatchCtx(ctx *exec.Context, ops []wal.Op) error {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	for i := range ops {
		switch ops[i].Kind {
		case wal.OpInsert:
			r := &ops[i].Rec
			var enc [record.Size]byte
			rid, err := sp.heap.AppendCtx(ctx, r.AppendBinary(enc[:0]))
			if err != nil {
				return fmt.Errorf("core: SP inserting record: %w", err)
			}
			if err := sp.index.InsertCtx(ctx, bptree.Entry{Key: r.Key, RID: rid}, struct{}{}); err != nil {
				return fmt.Errorf("core: SP indexing record: %w", err)
			}
			sp.catalog.Put(r.ID, heapfile.Live{RID: rid, Key: r.Key})
		case wal.OpDelete:
			l, ok := sp.catalog.Get(ops[i].ID)
			if !ok {
				return fmt.Errorf("core: SP has no record with id %d", ops[i].ID)
			}
			if err := sp.index.DeleteCtx(ctx, bptree.Entry{Key: ops[i].Key, RID: l.RID}); err != nil {
				return fmt.Errorf("core: SP unindexing record: %w", err)
			}
			if err := sp.heap.DeleteCtx(ctx, l.RID); err != nil {
				return fmt.Errorf("core: SP deleting record: %w", err)
			}
			sp.catalog.Remove(ops[i].ID)
		default:
			return fmt.Errorf("core: SP cannot apply op kind %d", ops[i].Kind)
		}
	}
	return nil
}

// SetTamper installs (or clears, with nil) result tampering, turning the SP
// malicious for attack experiments.
func (sp *ServiceProvider) SetTamper(t Tamper) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.tamper = t
}

// Stats exposes the SP's page-access counters.
func (sp *ServiceProvider) Stats() pagestore.Stats { return sp.store.Stats() }

// StorageBytes returns the SP's total footprint (dataset + index), the
// quantity of Figure 8.
func (sp *ServiceProvider) StorageBytes() int64 {
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	return sp.heap.Bytes() + sp.index.Bytes()
}

// HeapBytes returns only the dataset file's footprint.
func (sp *ServiceProvider) HeapBytes() int64 {
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	return sp.heap.Bytes()
}

// IndexHeight returns the B+-tree height (accessible for experiments).
func (sp *ServiceProvider) IndexHeight() int {
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	return sp.index.Height()
}

// TrustedEntity maintains the XB-Tree and issues verification tokens.
type TrustedEntity struct {
	mu    sync.RWMutex
	store *pagestore.Counting
	cache bufpool.Cache // decoded XB-Tree nodes
	tree  *xbtree.Tree
}

// NewTrustedEntity returns a TE backed by the given page store. Like the
// SP, it keeps its index's nodes in a decoded-node cache that charges
// every hit.
func NewTrustedEntity(store pagestore.Store) *TrustedEntity {
	return &TrustedEntity{store: pagestore.NewCounting(store)}
}

// CacheStats returns the decoded-node cache counters.
func (te *TrustedEntity) CacheStats() bufpool.Stats { return te.cache.Stats() }

// Load receives the owner's initial dataset (sorted by key): LoadFrom
// over the records' encodings, each encoded once.
func (te *TrustedEntity) Load(records []record.Record) error {
	return te.LoadFrom(len(records), record.ReaderOf(records))
}

// LoadFrom receives the owner's initial dataset as the canonical
// encodings of n records in key order, streamed by src, projects each
// record to its (id, digest) tuple and bulk-loads the XB-Tree. The TE
// discards everything else about the records. Digesting is the load's
// SHA-1 bill: digest.ReadWire hashes 16 records per pass of the 16-lane
// kernel, where they lie in one stack buffer.
func (te *TrustedEntity) LoadFrom(n int, src io.Reader) error {
	// One flat tuple array; each key's list is the run of it that shares
	// the key, since the records arrive in key order.
	tuples := make([]xbtree.Tuple, 0, n)
	items := make([]xbtree.KeyTuples, 0, n)
	err := digest.ReadWire(src, n, func(rec []byte, d digest.Digest) {
		tuples = append(tuples, xbtree.Tuple{ID: record.WireID(rec), Digest: d})
		if m := len(items); m > 0 && items[m-1].Key == record.WireKey(rec) {
			items[m-1].Tuples = tuples[len(tuples)-len(items[m-1].Tuples)-1:]
		} else {
			items = append(items, xbtree.KeyTuples{Key: record.WireKey(rec), Tuples: tuples[len(tuples)-1:]})
		}
	})
	if err != nil {
		return fmt.Errorf("core: TE loading: %w", err)
	}
	te.mu.Lock()
	defer te.mu.Unlock()
	tree, err := xbtree.Bulkload(te.store, items)
	if err != nil {
		return fmt.Errorf("core: TE loading XB-Tree: %w", err)
	}
	tree.UseCache(&te.cache)
	te.tree = tree
	return nil
}

// GenerateVT computes the verification token for q with a fresh request
// context; see GenerateVTCtx.
func (te *TrustedEntity) GenerateVT(q record.Range) (digest.Digest, costmodel.Breakdown, error) {
	return te.GenerateVTCtx(exec.NewContext(), q)
}

// GenerateVTCtx computes the verification token for q — the XOR of the
// digests of all records whose key falls in q — in O(log n) node accesses:
// GenerateVTBurst at n = 1, measured on the request's own counters so
// concurrent token generations do not corrupt each other's costs.
func (te *TrustedEntity) GenerateVTCtx(ctx *exec.Context, q record.Range) (digest.Digest, costmodel.Breakdown, error) {
	var vt [1]digest.Digest
	cost, err := measured(ctx, func() error {
		return te.GenerateVTBurst([]*exec.Context{ctx}, []record.Range{q}, vt[:])
	})
	return vt[0], cost, err
}

// ApplyBatchCtx is the TE's one write body: it applies a whole commit
// group under ONE lock acquisition and ONE digest pass — the digests of
// every inserted record in the group are computed first, 16 records per
// kernel pass (insertDigests), then the tree ops run in order. A single
// update is a group of one. Tuples, tree shape and therefore every
// future VT depend only on the ops and their order, never on how they
// were grouped.
func (te *TrustedEntity) ApplyBatchCtx(ctx *exec.Context, ops []wal.Op) error {
	// Digest outside the lock: the records are the caller's, and hashing
	// is the group's CPU bill — readers keep serving tokens while it
	// runs. The digests go to pooled scratch.
	sc := digestScratch.Get().(*[]digest.Digest)
	digests := insertDigests((*sc)[:0], ops)
	defer func() {
		if cap(digests) <= digestRetain {
			*sc = digests
			digestScratch.Put(sc)
		}
	}()
	te.mu.Lock()
	defer te.mu.Unlock()
	di := 0
	for i := range ops {
		switch ops[i].Kind {
		case wal.OpInsert:
			tup := xbtree.Tuple{ID: ops[i].Rec.ID, Digest: digests[di]}
			di++
			if err := te.tree.InsertCtx(ctx, ops[i].Rec.Key, tup); err != nil {
				return fmt.Errorf("core: TE inserting tuple: %w", err)
			}
		case wal.OpDelete:
			if err := te.tree.DeleteCtx(ctx, ops[i].Key, ops[i].ID); err != nil {
				return fmt.Errorf("core: TE deleting tuple: %w", err)
			}
		default:
			return fmt.Errorf("core: TE cannot apply op kind %d", ops[i].Kind)
		}
	}
	return nil
}

// digestScratch recycles the TE's per-group digest slices.
var digestScratch = sync.Pool{New: func() any { return new([]digest.Digest) }}

// digestRetain caps, in digests, the scratch a group may return to
// digestScratch.
const digestRetain = 4096

// insertDigests appends to dst the digest of every record ops inserts,
// in op order. It encodes 16 records at a time into one stack buffer and
// hashes them there: nothing is copied to the heap.
func insertDigests(dst []digest.Digest, ops []wal.Op) []digest.Digest {
	var buf [16 * record.Size]byte
	enc := buf[:0]
	for i := range ops {
		if ops[i].Kind != wal.OpInsert {
			continue
		}
		if enc = ops[i].Rec.AppendBinary(enc); len(enc) == len(buf) {
			dst, enc = digest.AppendWire(dst, enc), buf[:0]
		}
	}
	return digest.AppendWire(dst, enc)
}

// Stats exposes the TE's page-access counters.
func (te *TrustedEntity) Stats() pagestore.Stats { return te.store.Stats() }

// StorageBytes returns the TE's footprint: XB-Tree nodes plus tuple lists.
func (te *TrustedEntity) StorageBytes() int64 {
	te.mu.RLock()
	defer te.mu.RUnlock()
	return te.tree.Bytes()
}

// Validate re-checks the XB-Tree's invariants (tests and tooling).
func (te *TrustedEntity) Validate() error {
	te.mu.RLock()
	defer te.mu.RUnlock()
	return te.tree.Validate()
}

// Client verifies SP results against TE tokens.
type Client struct{}

// Verify hashes every received record, XORs the digests and compares with
// the token; it also rejects records outside the queried range, or out of
// key order, outright. (The order check is not in the paper — the XOR fold
// proves the result *set* — but every honest serve path in this tree
// returns clustered key order, single-system and sharded merge alike, so
// the client makes order part of the contract: a relay that reorders
// sub-results cannot pass off a permuted stream as the canonical answer.)
// The measured breakdown is pure CPU (the client touches no pages) — this
// is the quantity of Figure 7.
func (Client) Verify(q record.Range, result []record.Record, vt digest.Digest) (costmodel.Breakdown, error) {
	start := time.Now()
	var acc digest.Accumulator
	for i := range result {
		if !q.Contains(result[i].Key) {
			return costmodel.Breakdown{CPU: time.Since(start)},
				fmt.Errorf("%w: record id=%d key=%d outside %v", ErrVerificationFailed, result[i].ID, result[i].Key, q)
		}
		if i > 0 && result[i].Key < result[i-1].Key {
			return costmodel.Breakdown{CPU: time.Since(start)},
				fmt.Errorf("%w: result out of key order at record %d", ErrVerificationFailed, i)
		}
		acc.Add(digest.OfRecord(&result[i]))
	}
	cost := costmodel.Breakdown{CPU: time.Since(start)}
	if acc.Sum() != vt {
		return cost, fmt.Errorf("%w: digest XOR mismatch for %v", ErrVerificationFailed, q)
	}
	return cost, nil
}

// VerifyPool is the client-side parallel verifier: the Figure 7 check
// (recompute every record digest, XOR-fold, compare with the VT) over
// results still in wire form, fanned out across a bounded worker pool
// through digest's XOR fold. Accept/reject decisions are identical to
// Client.Verify for every input — XOR is order-independent — which
// TestVerifyPoolParity enforces across honest and tampered results.
type VerifyPool struct {
	workers int
}

// NewVerifyPool returns a verifier fanning out across up to `workers`
// goroutines; workers <= 0 selects the default crypto fan-out
// (digest.DefaultWorkers). Small results always verify inline.
func NewVerifyPool(workers int) VerifyPool {
	if workers <= 0 {
		workers = digest.DefaultWorkers()
	}
	return VerifyPool{workers: workers}
}

// VerifyEncoded checks one result still in canonical wire form — n
// back-to-back record encodings — without materializing a single record:
// VerifyEncodedBurst at n = 1, measuring pure client CPU. This is the
// zero-copy end of the serve→wire→verify chain.
func (vp VerifyPool) VerifyEncoded(q record.Range, enc []byte, vt digest.Digest) (costmodel.Breakdown, error) {
	start := time.Now()
	_, err := vp.VerifyEncodedBurst([]record.Range{q}, [][]byte{enc}, []digest.Digest{vt}, nil)
	return costmodel.Breakdown{CPU: time.Since(start)}, err
}

// DataOwner holds the authoritative relation and pushes it (and updates) to
// the SP and TE. It maintains no authentication structures — the point of
// SAE — and no catalog of its own: which ids are live, and under which
// key, is the SP's to know. The owner keeps only its fresh-id watermark.
type DataOwner struct {
	mu     sync.Mutex
	nextID record.ID
}

// watermark returns the next fresh id the owner would issue. Every id
// below it has been issued, even when its record was deleted since.
func (do *DataOwner) watermark() record.ID {
	do.mu.Lock()
	defer do.mu.Unlock()
	return do.nextID
}

// commitInserts synthesizes one fresh-id record per key and hands their
// insert ops to commit as one group. The ids are issued whether or not
// the commit succeeds, so none is ever issued twice.
func (do *DataOwner) commitInserts(keys []record.Key, commit func([]wal.Op) error) ([]record.Record, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	recs := make([]record.Record, len(keys))
	ops := make([]wal.Op, len(keys))
	do.mu.Lock()
	for i, k := range keys {
		recs[i] = record.Synthesize(do.nextID, k)
		do.nextID++
		ops[i] = wal.InsertOp(recs[i])
	}
	do.mu.Unlock()
	if err := commit(ops); err != nil {
		return nil, err
	}
	return recs, nil
}

// commitDeletes hands the delete ops of ids, each under the key keyOf
// reports its record indexed by, to commit as one group. An id keyOf does
// not know fails the whole call before commit; what commit admits is
// checked again there.
func commitDeletes(ids []record.ID, keyOf func(record.ID) (record.Key, bool), commit func([]wal.Op) error) error {
	if len(ids) == 0 {
		return nil
	}
	ops := make([]wal.Op, len(ids))
	for i, id := range ids {
		key, ok := keyOf(id)
		if !ok {
			return fmt.Errorf("core: no record with id %d", id)
		}
		ops[i] = wal.DeleteOp(id, key)
	}
	return commit(ops)
}

// fold brings the owner's watermark past the ids an applied commit group
// inserted, so a group a remote owner built cannot have its ids issued
// again.
func (do *DataOwner) fold(ops []wal.Op) {
	do.mu.Lock()
	defer do.mu.Unlock()
	for i := range ops {
		if ops[i].Kind == wal.OpInsert {
			do.nextID = max(do.nextID, ops[i].Rec.ID+1)
		}
	}
}
