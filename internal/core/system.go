package core

import (
	"slices"

	"sae/internal/agg"
	"sae/internal/bufpool"
	"sae/internal/costmodel"
	"sae/internal/digest"
	"sae/internal/exec"
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

// NewSystem outsources a dataset (must be sorted by key, as produced by
// workload.Generate) and returns the assembled system. Both parties run a
// decoded-node cache sized to the dataset's page working set
// (bufpool.CapacityFor) in charge-every-access mode, so node-access counts
// match an uncached run exactly while the cache never trails the working
// set.
func NewSystem(sorted []record.Record) (*System, error) {
	return NewSystemCache(sorted, bufpool.CapacityFor(len(sorted)), bufpool.ChargeAllAccesses)
}

// NewSystemCache is NewSystem with an explicit decoded-node cache
// configuration for both parties; pages <= 0 disables caching (the seed's
// original uncached behavior, used by before/after benchmarks).
func NewSystemCache(sorted []record.Record, pages int, policy bufpool.ChargePolicy) (*System, error) {
	s := &System{
		Owner: NewDataOwner(sorted),
		SP:    NewServiceProvider(pagestore.NewMem()),
		TE:    NewTrustedEntity(pagestore.NewMem()),
	}
	s.SP.ConfigureCache(pages, policy)
	s.TE.ConfigureCache(pages, policy)
	if err := s.Owner.Outsource(s.SP, s.TE, sorted); err != nil {
		return nil, err
	}
	return s, nil
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
	SPCost     costmodel.Breakdown
	TECost     costmodel.Breakdown
	ClientCost costmodel.Breakdown
	// VerifyErr is nil iff the SP's scalar matched the TE's range-bound
	// token.
	VerifyErr error
}

// ResponseTime models the client-perceived latency of an aggregate query:
// both parties answer in parallel from their annotated indexes, then the
// client performs the constant-work token check.
func (o *AggOutcome) ResponseTime() costmodel.Breakdown {
	slower := o.SPCost
	if o.TECost.Total() > slower.Total() {
		slower = o.TECost
	}
	return slower.Add(o.ClientCost)
}

// Aggregate runs the aggregation fast path for one range: the SP folds
// its B+-tree annotations, the TE issues the range-bound token, and the
// client compares — O(log n) work at both parties, O(1) at the client,
// regardless of how many records the range covers.
func (s *System) Aggregate(q record.Range) (*AggOutcome, error) {
	a, spCost, err := s.SP.Aggregate(q)
	if err != nil {
		return nil, err
	}
	tok, teCost, err := s.TE.AggToken(q)
	if err != nil {
		return nil, err
	}
	clientCost, verifyErr := s.Client.VerifyAggregate(q, a, tok)
	return &AggOutcome{
		Agg:        a,
		Token:      tok,
		SPCost:     spCost,
		TECost:     teCost,
		ClientCost: clientCost,
		VerifyErr:  verifyErr,
	}, nil
}

// Insert routes an owner-side insertion of a fresh record with the given
// key through to both the SP and the TE: a group of one.
func (s *System) Insert(key record.Key) (record.Record, error) {
	return only(s.Owner.commitInserts([]record.Key{key}, s.apply))
}

// Delete routes an owner-side deletion through to both parties: a group
// of one.
func (s *System) Delete(id record.ID) error {
	return s.Owner.commitDeletes([]record.ID{id}, s.apply)
}

func (s *System) apply(ops []wal.Op) error {
	return ApplyGroup(exec.NewContext(), s.Owner, s.SP, s.TE, ops)
}

// Rebuild assembles the three parties over fresh in-memory page stores
// from a record set in any order — a checkpoint being reopened or a
// snapshot a replica bootstraps from. The owner issues fresh ids from
// nextID or past the largest id in recs, whichever is higher. Both
// parties keep their default decoded-node caches.
func Rebuild(recs []record.Record, nextID record.ID) (*System, error) {
	sorted := slices.Clone(recs)
	slices.SortFunc(sorted, record.SortByKey)
	owner := NewDataOwner(recs)
	owner.nextID = max(owner.nextID, nextID)
	s := &System{
		Owner: owner,
		SP:    NewServiceProvider(pagestore.NewMem()),
		TE:    NewTrustedEntity(pagestore.NewMem()),
	}
	if err := s.Owner.Outsource(s.SP, s.TE, sorted); err != nil {
		return nil, err
	}
	return s, nil
}
