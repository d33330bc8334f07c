package shard

import (
	"testing"

	"sae/internal/record"
	"sae/internal/workload"
)

func TestPlanSpansTileDomain(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 8} {
		ds, err := workload.Generate(workload.UNF, 5000, 7)
		if err != nil {
			t.Fatal(err)
		}
		p := PlanFor(ds.Records, shards)
		if p.Shards() != shards {
			t.Fatalf("PlanFor(%d shards): got %d", shards, p.Shards())
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("plan invalid: %v", err)
		}
		if got := p.Span(0).Lo; got != 0 {
			t.Fatalf("first span starts at %d", got)
		}
		if got := p.Span(p.Shards() - 1).Hi; got != MaxKey {
			t.Fatalf("last span ends at %d", got)
		}
		for i := 1; i < p.Shards(); i++ {
			if p.Span(i).Lo != p.Span(i-1).Hi+1 {
				t.Fatalf("spans %d and %d not contiguous: %v then %v",
					i-1, i, p.Span(i-1), p.Span(i))
			}
		}
	}
}

func TestPartitionIsExactAndBalanced(t *testing.T) {
	for _, dist := range []workload.Distribution{workload.UNF, workload.SKW} {
		ds, err := workload.Generate(dist, 10_000, 11)
		if err != nil {
			t.Fatal(err)
		}
		const shards = 4
		p := PlanFor(ds.Records, shards)
		parts := p.Partition(ds.Records)
		total := 0
		for i, part := range parts {
			span := p.Span(i)
			for j := range part {
				if !span.Contains(part[j].Key) {
					t.Fatalf("%s shard %d: key %d outside span %v", dist, i, part[j].Key, span)
				}
				if sf := p.ShardFor(part[j].Key); sf != i {
					t.Fatalf("%s: ShardFor(%d) = %d, record in partition %d", dist, part[j].Key, sf, i)
				}
			}
			total += len(part)
			// Cardinality-balanced splits: every shard within 2x of the ideal.
			ideal := len(ds.Records) / shards
			if len(part) < ideal/2 || len(part) > 2*ideal {
				t.Fatalf("%s shard %d holds %d records (ideal %d)", dist, i, len(part), ideal)
			}
		}
		if total != len(ds.Records) {
			t.Fatalf("%s: partitions hold %d of %d records", dist, total, len(ds.Records))
		}
	}
}

func TestEqualKeysStayTogether(t *testing.T) {
	// 1000 records over just 10 distinct keys: splits must never separate a
	// key's run.
	recs := make([]record.Record, 1000)
	for i := range recs {
		recs[i] = record.Synthesize(record.ID(i+1), record.Key(i/100))
	}
	p := PlanFor(recs, 4)
	parts := p.Partition(recs)
	seen := map[record.Key]int{}
	for i, part := range parts {
		for j := range part {
			if prev, ok := seen[part[j].Key]; ok && prev != i {
				t.Fatalf("key %d split across shards %d and %d", part[j].Key, prev, i)
			}
			seen[part[j].Key] = i
		}
	}
}

func TestOverlappingAndClamp(t *testing.T) {
	p, err := NewPlan([]record.Key{100, 200, 300})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		q           record.Range
		first, last int
	}{
		{record.Range{Lo: 0, Hi: 50}, 0, 0},
		{record.Range{Lo: 50, Hi: 150}, 0, 1},
		{record.Range{Lo: 99, Hi: 100}, 0, 1},  // boundary-exact crossing
		{record.Range{Lo: 100, Hi: 199}, 1, 1}, // exactly one span
		{record.Range{Lo: 0, Hi: 1000}, 0, 3},  // all shards
		{record.Range{Lo: 300, Hi: 300}, 3, 3}, // exact last split
	}
	for _, c := range cases {
		first, last, ok := p.Overlapping(c.q)
		if !ok || first != c.first || last != c.last {
			t.Fatalf("Overlapping(%v) = %d..%d ok=%v, want %d..%d", c.q, first, last, ok, c.first, c.last)
		}
		// The clamps of the overlapping shards must tile q exactly.
		next := c.q.Lo
		for i := first; i <= last; i++ {
			sub := p.Clamp(i, c.q)
			if sub.Empty() {
				t.Fatalf("Clamp(%d, %v) empty", i, c.q)
			}
			if sub.Lo != next {
				t.Fatalf("Clamp(%d, %v) = %v, expected to start at %d", i, c.q, sub, next)
			}
			next = sub.Hi + 1
		}
		if next != c.q.Hi+1 {
			t.Fatalf("clamps of %v end at %d, want %d", c.q, next-1, c.q.Hi)
		}
	}
	if _, _, ok := p.Overlapping(record.Range{Lo: 5, Hi: 4}); ok {
		t.Fatal("Overlapping accepted an empty range")
	}
}

func TestPlanMarshalRoundTrip(t *testing.T) {
	for _, splits := range [][]record.Key{nil, {42}, {100, 200, 4_000_000}} {
		p, err := NewPlan(splits)
		if err != nil {
			t.Fatal(err)
		}
		got, rest, err := UnmarshalPlan(p.Marshal())
		if err != nil {
			t.Fatalf("UnmarshalPlan: %v", err)
		}
		if len(rest) != 0 {
			t.Fatalf("trailing bytes: %d", len(rest))
		}
		if !got.Equal(p) {
			t.Fatalf("round trip mismatch: %v vs %v", got, p)
		}
	}
	if _, _, err := UnmarshalPlan([]byte{0, 0}); err == nil {
		t.Fatal("UnmarshalPlan accepted a truncated header")
	}
	bad := Plan{splits: []record.Key{200, 100}}.Marshal()
	if _, _, err := UnmarshalPlan(bad); err == nil {
		t.Fatal("UnmarshalPlan accepted non-increasing splits")
	}
}

func TestNewPlanRejectsInvalid(t *testing.T) {
	if _, err := NewPlan([]record.Key{0}); err == nil {
		t.Fatal("NewPlan accepted a zero split")
	}
	if _, err := NewPlan([]record.Key{10, 10}); err == nil {
		t.Fatal("NewPlan accepted duplicate splits")
	}
}

func TestPlanForEmptyDataset(t *testing.T) {
	p := PlanFor(nil, 4)
	if p.Shards() != 4 {
		t.Fatalf("empty dataset plan has %d shards", p.Shards())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPlanForKeysMatchesRecords: planning from the packed pairs
// workload.Keys draws gives the plan PlanFor derives from the records
// workload.Generate synthesizes, degraded plans included.
func TestPlanForKeysMatchesRecords(t *testing.T) {
	for _, dist := range []workload.Distribution{workload.UNF, workload.SKW} {
		for _, n := range []int{0, 1, 50, 5000} {
			ds, err := workload.Generate(dist, n, 3)
			if err != nil {
				t.Fatal(err)
			}
			pairs, err := workload.Keys(dist, n, 3)
			if err != nil {
				t.Fatal(err)
			}
			key := func(i int) record.Key {
				k, _ := workload.Unpack(pairs[i])
				return k
			}
			for _, shards := range []int{1, 2, 3, 7, 64} {
				want := PlanFor(ds.Records, shards)
				if got := PlanForKeys(len(pairs), key, shards); !got.Equal(want) {
					t.Fatalf("%s n=%d shards=%d: keys form %v, records form %v", dist, n, shards, got, want)
				}
			}
		}
	}
}
