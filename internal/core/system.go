package core

import (
	"io"
	"slices"

	"sae/internal/agg"
	"sae/internal/costmodel"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/heapfile"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/wal"
)

// System wires the four SAE parties together over in-memory page stores —
// the one-call entry point examples and experiments use.
type System struct {
	Owner  *DataOwner
	SP     *ServiceProvider
	TE     *TrustedEntity
	Client Client
}

// NewSystem outsources a dataset in any order and returns the assembled
// system: rebuildFrom over the records' encodings, each encoded once.
// Records already in (key, id) order, as workload.Generate produces them,
// are loaded as they are; others from a sorted copy, and recs is never
// modified. Each party's tree holds its whole index as objects and charges
// every node access, so node-access counts are those of a paged tree.
func NewSystem(recs []record.Record) (*System, error) {
	sorted := sortedByKeyID(recs)
	return rebuildFrom(len(sorted), record.ReaderOf(sorted), 0)
}

// QueryOutcome captures one verified query round-trip and its per-party
// costs.
type QueryOutcome struct {
	Result []record.Record
	VT     digest.Digest
	// SPCost is the provider's query execution cost (index + fetch);
	// TECost the trusted entity's token generation; ClientCost the
	// client-side verification.
	SPCost     QueryCost
	TECost     costmodel.Breakdown
	ClientCost costmodel.Breakdown
	// VerifyErr is nil iff the result verified as sound and complete.
	VerifyErr error
}

// ResponseTime models the client-perceived latency: the SP and TE work in
// parallel (the client sends the query to both simultaneously, per the
// paper), then the client verifies.
func (o *QueryOutcome) ResponseTime() costmodel.Breakdown {
	slower := o.SPCost.Total()
	if o.TECost.Total() > slower.Total() {
		slower = o.TECost
	}
	return slower.Add(o.ClientCost)
}

// Query runs the full SAE protocol for one range query: the SP computes the
// result, the TE generates the token, and the client verifies.
func (s *System) Query(q record.Range) (*QueryOutcome, error) {
	result, spCost, err := s.SP.Query(q)
	if err != nil {
		return nil, err
	}
	vt, teCost, err := s.TE.GenerateVT(q)
	if err != nil {
		return nil, err
	}
	clientCost, verifyErr := s.Client.Verify(q, result, vt)
	return &QueryOutcome{
		Result:     result,
		VT:         vt,
		SPCost:     spCost,
		TECost:     teCost,
		ClientCost: clientCost,
		VerifyErr:  verifyErr,
	}, nil
}

// AggOutcome captures one verified aggregate query round-trip.
type AggOutcome struct {
	Agg        agg.Agg
	Token      agg.Token
	TECost     costmodel.Breakdown
	ClientCost costmodel.Breakdown
	// VerifyErr is nil iff the TE's token binds the query range; Agg is
	// then the token's aggregate.
	VerifyErr error
}

// Aggregate runs the aggregation fast path for one range: the TE issues
// the range-bound token from its XB-Tree annotations and the client
// checks its tag — O(log n) work at the TE, O(1) at the client,
// regardless of how many records the range covers.
func (s *System) Aggregate(q record.Range) (*AggOutcome, error) {
	tok, teCost, err := s.TE.AggTokenCtx(exec.NewContext(), q)
	if err != nil {
		return nil, err
	}
	a, clientCost, verifyErr := s.Client.VerifyAggregate(q, tok)
	return &AggOutcome{Agg: a, Token: tok, TECost: teCost, ClientCost: clientCost, VerifyErr: verifyErr}, nil
}

// Insert routes an owner-side insertion of a fresh record with the given
// key through to both the SP and the TE: a group of one.
func (s *System) Insert(key record.Key) (record.Record, error) {
	return only(s.Owner.commitInserts([]record.Key{key}, s.apply))
}

// Delete routes an owner-side deletion through to both parties: a group
// of one.
func (s *System) Delete(id record.ID) error {
	return commitDeletes([]record.ID{id}, s.SP.keyOf, s.apply)
}

// apply admits ops against the SP's catalog, then applies them as one
// group.
func (s *System) apply(ops []wal.Op) error {
	if err := s.SP.admit(make(heapfile.Overlay, len(ops)), ops); err != nil {
		return err
	}
	return ApplyGroup(exec.NewContext(), s.Owner, s.SP, s.TE, ops)
}

// rebuildFrom assembles the three parties over fresh in-memory page
// stores from the canonical encodings of n records in key order,
// streamed by src: the SP reads each record into its heap slot, the TE
// digests the records from the finished pages, and the owner issues
// fresh ids from nextID or past the largest id loaded, whichever is
// higher. A repeated id or a key out of order is an error.
func rebuildFrom(n int, src io.Reader, nextID record.ID) (*System, error) {
	s := &System{
		SP: NewServiceProvider(pagestore.NewMem()),
		TE: NewTrustedEntity(pagestore.NewMem()),
	}
	maxID, err := s.SP.load(n, src)
	if err != nil {
		return nil, err
	}
	if err := s.TE.LoadFrom(n, s.SP.heap.Records()); err != nil {
		return nil, err
	}
	s.Owner = &DataOwner{nextID: max(maxID+1, nextID)}
	return s, nil
}

// sortedByKeyID returns recs if they are in (key, id) order, else a
// sorted copy; recs is never modified. The order check compares the two
// fields in place rather than copying records into a comparator.
func sortedByKeyID(recs []record.Record) []record.Record {
	for i := 1; i < len(recs); i++ {
		if a, b := &recs[i-1], &recs[i]; a.Key > b.Key || (a.Key == b.Key && a.ID > b.ID) {
			sorted := slices.Clone(recs)
			slices.SortFunc(sorted, record.SortByKey)
			return sorted
		}
	}
	return recs
}
