// Package shard implements key-range partitioning for horizontally scaled
// deployments: a sorted dataset is split into N contiguous key partitions,
// one SP/TE pair runs per partition, and range queries
// scatter to the overlapping shards and gather back into one verified
// answer.
//
// SAE's verification token is unusually shard-friendly: the VT of a range
// is the XOR fold of the digests of the records it contains, every record
// lives in exactly one partition, and XOR is associative — so the VT of a
// query split across disjoint partitions is exactly the XOR of the
// per-shard VTs. The client can therefore verify a scattered query with no
// trust in the router: it only needs the partition map from the trusted
// entities themselves (see wire.DialShardedVerifying).
//
// This package holds the partitioning math only — the Plan type — so that
// core and wire can both build on it without import cycles.
package shard

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"sae/internal/record"
)

// MaxKey is the largest representable search key; the last shard's span
// always extends to it, so every key is owned by exactly one shard.
const MaxKey = ^record.Key(0)

// Plan is a key-range partitioning of the search-key domain into
// contiguous shards. Shard i owns the keys in [split[i-1], split[i]-1]
// (with implicit bounds 0 and MaxKey), so the spans are disjoint and tile
// the whole domain — the property the cross-shard verification argument
// rests on.
//
// A plan additionally carries an epoch: a monotonically increasing
// version of the topology. Resharding publishes a new plan at epoch+1;
// attestation checks compare plans with Equal (geometry AND epoch), so a
// replayed attestation of an older topology is rejected even when its
// spans happen to match.
//
// The zero Plan is the single-shard plan at epoch 0.
type Plan struct {
	splits []record.Key // strictly increasing, all > 0
	epoch  uint64       // topology version; bumped by every reshard
}

// Single is the trivial one-shard plan.
var Single = Plan{}

// NewPlan builds a plan from explicit split keys, validating them.
func NewPlan(splits []record.Key) (Plan, error) {
	p := Plan{splits: append([]record.Key(nil), splits...)}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// Validate checks the plan invariant: splits strictly increasing and
// non-zero (a zero split would leave shard 0 with an empty span).
func (p Plan) Validate() error {
	for i, s := range p.splits {
		if s == 0 {
			return fmt.Errorf("shard: split %d is zero", i)
		}
		if i > 0 && s <= p.splits[i-1] {
			return fmt.Errorf("shard: splits not strictly increasing at %d (%d after %d)",
				i, s, p.splits[i-1])
		}
	}
	return nil
}

// PlanFor partitions a dataset (sorted by key, as produced by
// workload.Generate) into up to `shards` contiguous partitions of roughly
// equal cardinality. Records with equal keys always land in the same shard
// (a split never falls inside a key's run), so a partition boundary is
// always a clean key boundary. If the dataset has too few distinct keys the
// plan degrades to fewer shards; an empty dataset is split evenly across
// the key domain.
func PlanFor(sorted []record.Record, shards int) Plan {
	if shards < 1 {
		shards = 1
	}
	if shards == 1 {
		return Plan{}
	}
	n := len(sorted)
	if n == 0 {
		splits := make([]record.Key, 0, shards-1)
		for i := 1; i < shards; i++ {
			s := record.Key(uint64(i) * uint64(record.KeyDomain) / uint64(shards))
			if len(splits) == 0 || s > splits[len(splits)-1] {
				splits = append(splits, s)
			}
		}
		return Plan{splits: splits}
	}
	splits := make([]record.Key, 0, shards-1)
	for i := 1; i < shards; i++ {
		idx := i * n / shards
		// Advance past a run of equal keys so the whole run stays in the
		// shard to the left; the split key is the first key of the next
		// shard.
		for idx < n && idx > 0 && sorted[idx].Key == sorted[idx-1].Key {
			idx++
		}
		if idx >= n {
			break
		}
		s := sorted[idx].Key
		if s == 0 || (len(splits) > 0 && s <= splits[len(splits)-1]) {
			continue
		}
		splits = append(splits, s)
	}
	return Plan{splits: splits}
}

// Shards returns the number of partitions.
func (p Plan) Shards() int { return len(p.splits) + 1 }

// Epoch returns the plan's topology version.
func (p Plan) Epoch() uint64 { return p.epoch }

// WithEpoch returns a copy of the plan stamped with the given epoch; the
// split geometry is shared (splits are never mutated in place).
func (p Plan) WithEpoch(e uint64) Plan {
	p.epoch = e
	return p
}

// Span returns shard i's key span (closed interval). The first span starts
// at 0, the last ends at MaxKey.
func (p Plan) Span(i int) record.Range {
	lo := record.Key(0)
	if i > 0 {
		lo = p.splits[i-1]
	}
	hi := MaxKey
	if i < len(p.splits) {
		hi = p.splits[i] - 1
	}
	return record.Range{Lo: lo, Hi: hi}
}

// ShardFor returns the index of the shard owning key k: the first split
// strictly greater than k. Hand-rolled branchless-friendly binary search
// over the split slice — this sits on every update's routing path and on
// every scatter, and skipping sort.Search's closure indirection is worth
// ~2x at deployment shard counts (BenchmarkShardFor vs the linear
// reference baseline in plan_bench_test.go).
func (p Plan) ShardFor(k record.Key) int {
	lo, hi := 0, len(p.splits)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.splits[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Overlapping returns the half-open shard index interval [first, last+1)
// whose spans intersect q; ok is false when q is empty.
func (p Plan) Overlapping(q record.Range) (first, last int, ok bool) {
	if q.Empty() {
		return 0, -1, false
	}
	return p.ShardFor(q.Lo), p.ShardFor(q.Hi), true
}

// Clamp intersects q with shard i's span. For a shard reported by
// Overlapping the result is never empty.
func (p Plan) Clamp(i int, q record.Range) record.Range {
	span := p.Span(i)
	if q.Lo > span.Lo {
		span.Lo = q.Lo
	}
	if q.Hi < span.Hi {
		span.Hi = q.Hi
	}
	return span
}

// Partition slices a dataset (sorted by key) into per-shard subslices
// aliasing the input. Sub-slice i holds exactly the records whose keys
// fall in Span(i).
func (p Plan) Partition(sorted []record.Record) [][]record.Record {
	parts := make([][]record.Record, p.Shards())
	lo := 0
	for i := range parts {
		hi := lo
		if i < len(p.splits) {
			split := p.splits[i]
			hi = lo + sort.Search(len(sorted)-lo, func(j int) bool {
				return sorted[lo+j].Key >= split
			})
		} else {
			hi = len(sorted)
		}
		parts[i] = sorted[lo:hi]
		lo = hi
	}
	return parts
}

// Splits returns a copy of the split keys.
func (p Plan) Splits() []record.Key {
	return append([]record.Key(nil), p.splits...)
}

// Equal reports whether two plans describe the same topology: identical
// split geometry at the same epoch. This is the comparison every
// attestation check uses — an old plan replayed after a reshard fails it
// even when the geometry matches (a merge can restore earlier spans).
func (p Plan) Equal(o Plan) bool {
	return p.epoch == o.epoch && p.SameSpans(o)
}

// SameSpans reports whether two plans partition the domain identically,
// ignoring epochs — the geometric half of Equal, for callers comparing
// shapes across topology versions.
func (p Plan) SameSpans(o Plan) bool {
	if len(p.splits) != len(o.splits) {
		return false
	}
	for i := range p.splits {
		if p.splits[i] != o.splits[i] {
			return false
		}
	}
	return true
}

// Marshal serializes the plan: shard count, the split keys, then the
// epoch. Every carrier of a marshaled plan (shard attestations, replica
// snapshots, reshard plan updates) transports the epoch with it.
func (p Plan) Marshal() []byte {
	out := make([]byte, 4, 4+4*len(p.splits)+8)
	binary.BigEndian.PutUint32(out[0:4], uint32(p.Shards()))
	for _, s := range p.splits {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(s))
		out = append(out, b[:]...)
	}
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], p.epoch)
	return append(out, e[:]...)
}

// UnmarshalPlan parses a serialized plan, validating it, and returns any
// trailing bytes.
func UnmarshalPlan(b []byte) (Plan, []byte, error) {
	if len(b) < 4 {
		return Plan{}, nil, fmt.Errorf("shard: truncated plan header")
	}
	shards := int(binary.BigEndian.Uint32(b[0:4]))
	b = b[4:]
	if shards < 1 {
		return Plan{}, nil, fmt.Errorf("shard: plan with %d shards", shards)
	}
	if len(b) < 4*(shards-1)+8 {
		return Plan{}, nil, fmt.Errorf("shard: truncated plan splits")
	}
	splits := make([]record.Key, shards-1)
	for i := range splits {
		splits[i] = record.Key(binary.BigEndian.Uint32(b[4*i : 4*i+4]))
	}
	p, err := NewPlan(splits)
	if err != nil {
		return Plan{}, nil, err
	}
	b = b[4*(shards-1):]
	p.epoch = binary.BigEndian.Uint64(b[0:8])
	return p, b[8:], nil
}

// String renders the plan for logs.
func (p Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan{%d shards", p.Shards())
	if len(p.splits) > 0 {
		sb.WriteString(": splits ")
		for i, s := range p.splits {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%d", s)
		}
	}
	if p.epoch > 0 {
		fmt.Fprintf(&sb, " epoch %d", p.epoch)
	}
	sb.WriteString("}")
	return sb.String()
}
