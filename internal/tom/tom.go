// Package tom implements the Traditional Outsourcing Model the paper
// compares against: the data owner builds an authenticated data structure
// (the MB-Tree), signs its root digest, and the service provider answers
// every query with both the result and a verification object (VO) from
// which the client reconstructs the signed root.
//
// Contrast with package core (SAE): here the owner must maintain an ADS,
// the provider needs a modified DBMS that builds VOs, and each query ships
// kilobytes of authentication data instead of a 20-byte token.
package tom

import (
	"fmt"
	"sync"
	"time"

	"sae/internal/bufpool"
	"sae/internal/core"
	"sae/internal/costmodel"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/heapfile"
	"sae/internal/mbtree"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/sigs"
	"sae/internal/wal"
)

// Owner holds the data owner's signing key. Under TOM the owner also keeps
// a full copy of the ADS; for the experiments only its signing duty matters
// (storage is measured at the SP), so the owner is modeled as the signer.
type Owner struct {
	signer *sigs.Signer
}

// NewOwner generates the owner's key pair.
func NewOwner() (*Owner, error) {
	s, err := sigs.NewSigner()
	if err != nil {
		return nil, err
	}
	return &Owner{signer: s}, nil
}

// Sign signs a root digest (done at initial outsourcing and after every
// update batch).
func (o *Owner) Sign(root digest.Digest) ([]byte, error) {
	return o.signer.Sign(root)
}

// Verifier returns the public verifier clients use.
func (o *Owner) Verifier() *sigs.Verifier { return o.signer.Verifier() }

// Tamper mirrors core.Tamper for the TOM provider.
type Tamper func([]record.Record) []record.Record

// Provider is the TOM service provider: heap file + MB-Tree + the owner's
// root signature.
type Provider struct {
	mu      sync.RWMutex
	store   *pagestore.Counting
	cache   bufpool.Cache // decoded MB-Tree nodes (the heap is uncached)
	heap    *heapfile.File
	tree    *mbtree.Tree
	sig     []byte
	catalog heapfile.Catalog // which ids are live, where, under which key
	tamper  Tamper
}

// NewProvider returns a provider backed by the given page store. Its
// decoded-node cache keeps the MB-Tree's nodes and charges every hit; the
// heap file is never cached.
func NewProvider(store pagestore.Store) *Provider {
	return &Provider{store: pagestore.NewCounting(store)}
}

// CacheStats returns the decoded-node cache counters.
func (p *Provider) CacheStats() bufpool.Stats { return p.cache.Stats() }

// Load builds the heap file and the MB-Tree from the owner's dataset
// (sorted by key) and obtains the owner's signature over the root digest.
// A dataset carrying one id twice is refused: deleting that id would
// leave the other copy served and verifying.
func (p *Provider) Load(records []record.Record, owner *Owner) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	heap, rids, err := heapfile.Build(p.store, records)
	if err != nil {
		return fmt.Errorf("tom: provider loading heap: %w", err)
	}
	catalog, err := heapfile.CatalogOf(records, rids)
	if err != nil {
		return fmt.Errorf("tom: provider loading catalog: %w", err)
	}
	// Digesting the dataset is the load's SHA-1 bill; fan it out across
	// the crypto worker pool before the single-threaded tree build.
	digests := make([]digest.Digest, len(records))
	digest.RecordDigests(digests, records, 0)
	entries := make([]mbtree.Entry, len(records))
	for i := range records {
		entries[i] = mbtree.Entry{
			Key:    records[i].Key,
			RID:    rids[i],
			Digest: digests[i],
		}
	}
	tree, err := mbtree.Bulkload(p.store, entries)
	if err != nil {
		return fmt.Errorf("tom: provider loading MB-Tree: %w", err)
	}
	tree.UseCache(&p.cache)
	p.heap = heap
	p.tree = tree
	p.catalog = catalog
	sig, err := owner.Sign(tree.RootDigest())
	if err != nil {
		return fmt.Errorf("tom: owner signing root: %w", err)
	}
	p.sig = sig
	return nil
}

// Query answers a range query with a fresh request context; see QueryCtx.
func (p *Provider) Query(q record.Range) ([]record.Record, *mbtree.VO, core.QueryCost, error) {
	return p.QueryCtx(exec.NewContext(), q)
}

// QueryCtx answers a range query with the result and its VO. The VO embeds
// the boundary records and the owner's signature; its serialized size is
// the communication overhead of Figure 5. The cost's Index component covers
// the MB-Tree traversal plus VO assembly (including the boundary-record
// reads); Fetch covers the dataset-file scan for the result. Costs come
// from the request context's counters, so concurrent queries measure
// exactly their own accesses; phase CPU is anchored per phase.
func (p *Provider) QueryCtx(ctx *exec.Context, q record.Range) ([]record.Record, *mbtree.VO, core.QueryCost, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	var qc core.QueryCost
	before := ctx.Stats()
	start := time.Now()
	rids, vo, err := p.tree.RangeVOCtx(ctx, q.Lo, q.Hi, p.heap, p.sig)
	if err != nil {
		return nil, nil, qc, fmt.Errorf("tom: provider VO build: %w", err)
	}
	mid := ctx.Stats()
	fetchStart := time.Now()
	qc.Index = costmodel.Default.Measure(mid.Sub(before), fetchStart.Sub(start))
	recs, err := p.heap.GetManyCtx(ctx, rids)
	if err != nil {
		return nil, nil, qc, fmt.Errorf("tom: provider record fetch: %w", err)
	}
	qc.Fetch = costmodel.Default.Measure(ctx.Stats().Sub(mid), time.Since(fetchStart))
	if p.tamper != nil {
		recs = p.tamper(recs)
	}
	return recs, vo, qc, nil
}

// ApplyInsert stores a new record and gets the root re-signed: a group of
// one.
func (p *Provider) ApplyInsert(r record.Record, owner *Owner) error {
	return p.ApplyBatchCtx(exec.NewContext(), []wal.Op{wal.InsertOp(r)}, owner)
}

// ApplyDelete removes a record and gets the root re-signed: a group of
// one.
func (p *Provider) ApplyDelete(id record.ID, key record.Key, owner *Owner) error {
	return p.ApplyBatchCtx(exec.NewContext(), []wal.Op{wal.DeleteOp(id, key)}, owner)
}

// ApplyBatchCtx is the provider's one write body: it applies a whole
// commit group under one lock with ONE owner signature at the end —
// TOM's analogue of the SAE group commit — and a single update is a
// group of one. The per-update RSA re-sign is TOM's dominant write cost;
// batching amortizes it to sig/group, which is exactly the comparison
// the write benchmark draws. Digests fan out across the crypto pool in
// one dispatch, like the load path. The whole batch is admitted against
// the catalog before its first mutation (heapfile.Catalog.Admit, the rule
// SAE's committer applies too), so a refused batch changes nothing.
func (p *Provider) ApplyBatchCtx(ctx *exec.Context, ops []wal.Op, owner *Owner) error {
	var inserts []record.Record
	for i := range ops {
		if ops[i].Kind == wal.OpInsert {
			inserts = append(inserts, ops[i].Rec)
		}
	}
	var digests []digest.Digest
	if len(inserts) > 0 {
		digests = make([]digest.Digest, len(inserts))
		digest.RecordDigests(digests, inserts, 0)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.catalog.Admit(make(heapfile.Overlay, len(ops)), ops); err != nil {
		return err
	}
	di := 0
	for i := range ops {
		switch ops[i].Kind {
		case wal.OpInsert:
			r := &ops[i].Rec
			var enc [record.Size]byte
			rid, err := p.heap.AppendCtx(ctx, r.AppendBinary(enc[:0]))
			if err != nil {
				return fmt.Errorf("tom: provider inserting record: %w", err)
			}
			e := mbtree.Entry{Key: r.Key, RID: rid, Digest: digests[di]}
			di++
			if err := p.tree.InsertCtx(ctx, e); err != nil {
				return fmt.Errorf("tom: provider indexing record: %w", err)
			}
			p.catalog.Put(r.ID, heapfile.Live{RID: rid, Key: r.Key})
		case wal.OpDelete:
			l, _ := p.catalog.Get(ops[i].ID)
			if err := p.tree.DeleteCtx(ctx, mbtree.Entry{Key: ops[i].Key, RID: l.RID}); err != nil {
				return fmt.Errorf("tom: provider unindexing record: %w", err)
			}
			if err := p.heap.DeleteCtx(ctx, l.RID); err != nil {
				return fmt.Errorf("tom: provider deleting record: %w", err)
			}
			p.catalog.Remove(ops[i].ID)
		}
	}
	sig, err := owner.Sign(p.tree.RootDigest())
	if err != nil {
		return fmt.Errorf("tom: owner re-signing root: %w", err)
	}
	p.sig = sig
	return nil
}

// SetTamper installs (or clears) result tampering for attack experiments.
func (p *Provider) SetTamper(t Tamper) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tamper = t
}

// Stats exposes the provider's page-access counters.
func (p *Provider) Stats() pagestore.Stats { return p.store.Stats() }

// StorageBytes returns the provider's footprint (dataset + MB-Tree).
func (p *Provider) StorageBytes() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.heap.Bytes() + p.tree.Bytes()
}

// IndexHeight returns the MB-Tree height.
func (p *Provider) IndexHeight() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.tree.Height()
}

// Client verifies TOM results: it reconstructs the MB-Tree root from the VO
// and the received records and checks the owner's signature.
type Client struct {
	Verifier *sigs.Verifier
}

// Verify returns nil iff the result is provably sound and complete. The
// breakdown is client CPU (hashing every record, rebuilding the Merkle
// path, one RSA verification) — Figure 7's TOM series.
func (c Client) Verify(q record.Range, result []record.Record, vo *mbtree.VO) (costmodel.Breakdown, error) {
	start := time.Now()
	err := mbtree.VerifyVO(vo, result, q.Lo, q.Hi, c.Verifier)
	return costmodel.Breakdown{CPU: time.Since(start)}, err
}

// System wires owner, provider and client for examples and experiments.
type System struct {
	Owner    *Owner
	Provider *Provider
	Client   Client
}

// NewSystem outsources a dataset (sorted by key) under TOM. The
// provider's decoded-node cache holds its whole MB-Tree and charges every
// hit.
func NewSystem(sorted []record.Record) (*System, error) {
	owner, err := NewOwner()
	if err != nil {
		return nil, err
	}
	p := NewProvider(pagestore.NewMem())
	if err := p.Load(sorted, owner); err != nil {
		return nil, err
	}
	return &System{Owner: owner, Provider: p, Client: Client{Verifier: owner.Verifier()}}, nil
}

// QueryOutcome captures one verified TOM query round-trip.
type QueryOutcome struct {
	Result     []record.Record
	VO         *mbtree.VO
	SPCost     core.QueryCost
	ClientCost costmodel.Breakdown
	VerifyErr  error
}

// ResponseTime is SP execution plus client verification (no parallel party
// under TOM).
func (o *QueryOutcome) ResponseTime() costmodel.Breakdown {
	return o.SPCost.Total().Add(o.ClientCost)
}

// Query runs the full TOM protocol for one range query.
func (s *System) Query(q record.Range) (*QueryOutcome, error) {
	result, vo, spCost, err := s.Provider.Query(q)
	if err != nil {
		return nil, err
	}
	clientCost, verifyErr := s.Client.Verify(q, result, vo)
	return &QueryOutcome{
		Result:     result,
		VO:         vo,
		SPCost:     spCost,
		ClientCost: clientCost,
		VerifyErr:  verifyErr,
	}, nil
}

// Insert routes an owner-side insertion through the provider with
// re-signing.
func (s *System) Insert(key record.Key, id record.ID) (record.Record, error) {
	r := record.Synthesize(id, key)
	return r, s.Provider.ApplyInsert(r, s.Owner)
}

// Delete routes an owner-side deletion through the provider.
func (s *System) Delete(id record.ID, key record.Key) error {
	return s.Provider.ApplyDelete(id, key, s.Owner)
}
