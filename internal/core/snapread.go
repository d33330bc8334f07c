package core

import (
	"fmt"

	"sae/internal/bptree"
	"sae/internal/costmodel"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/heapfile"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/xbtree"
)

// SPSnapshot is a read-only view of the ServiceProvider frozen at one
// generation. A long verified scan opens one and keeps serving exactly
// that state — bit-identical pages, therefore bit-identical results and
// access counts — while the committer advances the live structures;
// neither side waits for the other after the instant of the open.
//
// The view reopens the heap and index over the MVCC snapshot store
// without a decoded-node cache: every access hits the (frozen) page
// store, so under the charge-every-access policy the node-access
// accounting matches a live query of the same generation exactly.
type SPSnapshot struct {
	view  *pagestore.SnapshotView
	store *pagestore.Counting
	heap  *heapfile.File
	index *bptree.Tree
}

// BeginSnapshot freezes the SP's current state into a read handle. The
// structure read-lock is held only for the instant of the open (copying
// metadata and bumping the generation); the returned snapshot is then
// queried without any SP lock at all. Callers must Close it.
func (sp *ServiceProvider) BeginSnapshot() (*SPSnapshot, error) {
	sp.mu.RLock()
	defer sp.mu.RUnlock()
	if sp.heap == nil || sp.index == nil {
		return nil, fmt.Errorf("core: snapshot of an unloaded SP")
	}
	hm := sp.heap.Meta()
	im := sp.index.Meta()
	view := sp.ver.OpenSnapshot()
	store := pagestore.NewCounting(view)
	index, err := bptree.Open(store, im)
	if err != nil {
		view.Close()
		return nil, fmt.Errorf("core: snapshot index open: %w", err)
	}
	return &SPSnapshot{
		view:  view,
		store: store,
		heap:  heapfile.Open(store, hm),
		index: index,
	}, nil
}

// Generation returns the page-store generation this snapshot serves.
func (s *SPSnapshot) Generation() uint64 { return s.view.Generation() }

// Query answers a range query against the frozen state; see
// ServiceProvider.QueryCtx for the phase accounting, which is identical.
func (s *SPSnapshot) Query(q record.Range) ([]record.Record, QueryCost, error) {
	return s.QueryCtx(exec.NewContext(), q)
}

// QueryCtx answers a range query against the frozen state with the live
// SP's query body, charging page accesses to ctx. No lock is taken: the
// snapshot store is immutable.
func (s *SPSnapshot) QueryCtx(ctx *exec.Context, q record.Range) ([]record.Record, QueryCost, error) {
	return query(ctx, s.index, s.heap, q)
}

// Stats exposes the snapshot's own page-access counters (the live SP's
// counters are untouched by snapshot reads).
func (s *SPSnapshot) Stats() pagestore.Stats { return s.store.Stats() }

// Close releases the page versions the snapshot retained. Idempotent.
func (s *SPSnapshot) Close() error { return s.view.Close() }

// TESnapshot is the TE counterpart of SPSnapshot: a frozen XB-Tree that
// generates the verification tokens of its generation forever, byte for
// byte, while the live tree moves on.
type TESnapshot struct {
	view  *pagestore.SnapshotView
	store *pagestore.Counting
	tree  *xbtree.Tree
}

// BeginSnapshot freezes the TE's current state into a token-generation
// handle. Callers must Close it.
func (te *TrustedEntity) BeginSnapshot() (*TESnapshot, error) {
	te.mu.RLock()
	defer te.mu.RUnlock()
	if te.tree == nil {
		return nil, fmt.Errorf("core: snapshot of an unloaded TE")
	}
	tm := te.tree.Meta()
	view := te.ver.OpenSnapshot()
	store := pagestore.NewCounting(view)
	tree, err := xbtree.Open(store, tm)
	if err != nil {
		view.Close()
		return nil, fmt.Errorf("core: snapshot XB-Tree open: %w", err)
	}
	return &TESnapshot{view: view, store: store, tree: tree}, nil
}

// Generation returns the page-store generation this snapshot serves.
func (s *TESnapshot) Generation() uint64 { return s.view.Generation() }

// GenerateVT computes the token for q against the frozen tree; see
// TrustedEntity.GenerateVTCtx.
func (s *TESnapshot) GenerateVT(q record.Range) (digest.Digest, costmodel.Breakdown, error) {
	return s.GenerateVTCtx(exec.NewContext(), q)
}

// GenerateVTCtx computes the token for q against the frozen tree with
// the live TE's token body, charging page accesses to ctx. No lock is
// taken.
func (s *TESnapshot) GenerateVTCtx(ctx *exec.Context, q record.Range) (digest.Digest, costmodel.Breakdown, error) {
	var vt [1]digest.Digest
	cost, err := measured(ctx, func() error {
		return generateVTs(s.tree, []*exec.Context{ctx}, []record.Range{q}, vt[:])
	})
	return vt[0], cost, err
}

// Stats exposes the snapshot's own page-access counters.
func (s *TESnapshot) Stats() pagestore.Stats { return s.store.Stats() }

// Close releases the page versions the snapshot retained. Idempotent.
func (s *TESnapshot) Close() error { return s.view.Close() }
