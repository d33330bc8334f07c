package core

import (
	"testing"

	"sae/internal/digest"
	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/workload"
)

// buildParitySystems returns a single system and a sharded system over the
// same dataset.
func buildParitySystems(t *testing.T, dist workload.Distribution, n, shards int) (*System, *ShardedSystem) {
	t.Helper()
	ds, err := workload.Generate(dist, n, 42)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	single, err := NewSystem(ds.Records)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	sharded, err := NewShardedSystem(ds.Records, shards)
	if err != nil {
		t.Fatalf("NewShardedSystem: %v", err)
	}
	if sharded.Plan.Shards() != shards {
		t.Fatalf("plan has %d shards, want %d", sharded.Plan.Shards(), shards)
	}
	return single, sharded
}

// parityQueries builds the acceptance grid: random ranges, ranges spanning
// >= 3 shard boundaries, boundary-exact endpoints, single-shard, empty and
// all-shard ranges.
func parityQueries(plan shard.Plan) []record.Range {
	qs := workload.Queries(12, workload.DefaultExtent, 43)
	spans := make([]record.Range, plan.Shards())
	for i := range spans {
		spans[i] = plan.Span(i)
	}
	last := len(spans) - 1
	qs = append(qs,
		// Spanning >= 3 boundaries: from inside shard 0 to inside the last.
		record.Range{Lo: spans[0].Lo + (spans[0].Hi-spans[0].Lo)/2, Hi: spans[last].Lo + 1000},
		// Boundary-exact endpoints: exactly one interior span.
		spans[1],
		// Lo exactly on a split, Hi exactly one key before the next split.
		record.Range{Lo: spans[2].Lo, Hi: spans[2].Hi},
		// Endpoints exactly on two different splits (crosses 2 boundaries).
		record.Range{Lo: spans[1].Lo, Hi: spans[3].Lo},
		// One-key ranges at both sides of a boundary.
		record.Range{Lo: spans[2].Lo - 1, Hi: spans[2].Lo - 1},
		record.Range{Lo: spans[2].Lo, Hi: spans[2].Lo},
		// Strictly inside one shard.
		record.Range{Lo: spans[1].Lo + 1, Hi: spans[1].Lo + 2},
		// Everything, and nothing.
		record.Range{Lo: 0, Hi: record.KeyDomain},
		record.Range{Lo: 10, Hi: 5},
	)
	return qs
}

// TestShardedQueryParity is the cross-shard exactness criterion: for every
// query in the grid, the merged scatter-gather result and XOR-combined VT
// must verify identically to a single-system run over the same data.
func TestShardedQueryParity(t *testing.T) {
	for _, dist := range []workload.Distribution{workload.UNF, workload.SKW} {
		single, sharded := buildParitySystems(t, dist, 20_000, 5)
		for _, q := range parityQueries(sharded.Plan) {
			want, err := single.Query(q)
			if err != nil {
				t.Fatalf("%s single query %v: %v", dist, q, err)
			}
			got, err := sharded.Query(q)
			if err != nil {
				t.Fatalf("%s sharded query %v: %v", dist, q, err)
			}
			if want.VerifyErr != nil {
				t.Fatalf("%s single system failed verification for %v: %v", dist, q, want.VerifyErr)
			}
			if got.VerifyErr != nil {
				t.Fatalf("%s sharded system failed verification for %v: %v", dist, q, got.VerifyErr)
			}
			if got.VT != want.VT {
				t.Fatalf("%s %v: combined VT %x != single VT %x", dist, q, got.VT, want.VT)
			}
			if len(got.Result) != len(want.Result) {
				t.Fatalf("%s %v: %d records sharded, %d single", dist, q, len(got.Result), len(want.Result))
			}
			for i := range got.Result {
				if got.Result[i].ID != want.Result[i].ID || got.Result[i].Key != want.Result[i].Key {
					t.Fatalf("%s %v: result diverges at %d: id %d/key %d vs id %d/key %d",
						dist, q, i, got.Result[i].ID, got.Result[i].Key, want.Result[i].ID, want.Result[i].Key)
				}
			}
		}
	}
}

// TestShardedCostRollup checks the accounting contract: QueryCost sums the
// per-shard work, ResponseTime is bounded by the slowest shard plus client
// time, and a cross-shard query reports one cost entry per overlapping
// shard with sub-ranges tiling the query.
func TestShardedCostRollup(t *testing.T) {
	_, sharded := buildParitySystems(t, workload.UNF, 20_000, 5)
	spans := make([]record.Range, sharded.Plan.Shards())
	for i := range spans {
		spans[i] = sharded.Plan.Span(i)
	}
	q := record.Range{Lo: spans[0].Hi - 500, Hi: spans[3].Lo + 500} // 4 shards
	out, err := sharded.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if out.VerifyErr != nil {
		t.Fatal(out.VerifyErr)
	}
	if len(out.PerShard) != 4 {
		t.Fatalf("query %v touched %d shards, want 4", q, len(out.PerShard))
	}
	next := q.Lo
	var sumAccesses float64
	var maxTotal int64
	for _, pc := range out.PerShard {
		if pc.Sub.Lo != next {
			t.Fatalf("shard %d sub-range %v does not continue at %d", pc.Shard, pc.Sub, next)
		}
		next = pc.Sub.Hi + 1
		if pc.SPCost.Total().Accesses == 0 {
			t.Fatalf("shard %d reports zero SP accesses", pc.Shard)
		}
		if pc.TECost.Accesses == 0 {
			t.Fatalf("shard %d reports zero TE accesses", pc.Shard)
		}
		sumAccesses += pc.SPCost.Total().Accesses
		total := pc.SPCost.Total().Total().Nanoseconds()
		if te := pc.TECost.Total().Nanoseconds(); te > total {
			total = te
		}
		if total > maxTotal {
			maxTotal = total
		}
	}
	if next != q.Hi+1 {
		t.Fatalf("sub-ranges end at %d, want %d", next-1, q.Hi)
	}
	if got := out.QueryCost().Total().Accesses; got != sumAccesses {
		t.Fatalf("QueryCost sums %g accesses, per-shard sum is %g", got, sumAccesses)
	}
	rt := out.ResponseTime().Total().Nanoseconds()
	if rt < maxTotal {
		t.Fatalf("ResponseTime %d below slowest shard %d", rt, maxTotal)
	}
	sumTotal := out.QueryCost().Total().Total().Nanoseconds() + out.TECost().Total().Nanoseconds()
	if rt >= sumTotal+out.ClientCost.Total().Nanoseconds() {
		t.Fatalf("ResponseTime %d not below sum-of-shards %d: max-over-shards roll-up broken", rt, sumTotal)
	}
}

// TestShardedTamperDetected: a single malicious shard cannot slip a drop,
// injection or modification past the combined token.
func TestShardedTamperDetected(t *testing.T) {
	_, sharded := buildParitySystems(t, workload.UNF, 10_000, 4)
	q := record.Range{Lo: sharded.Plan.Span(1).Hi - 2000, Hi: sharded.Plan.Span(2).Lo + 2000}
	out, err := sharded.Query(q)
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("honest run failed: %v / %v", err, out.VerifyErr)
	}
	if len(out.Result) == 0 {
		t.Fatal("test query returned no records")
	}
	tampers := map[string]Tamper{
		// Dropping the LAST record of shard 1's sub-result attacks the
		// partition seam itself.
		"drop-at-seam": DropTamper(1 << 30),
		"inject":       InjectTamper(record.Synthesize(999_999_999, q.Lo)),
		"modify":       ModifyTamper(0),
	}
	for name, tamper := range tampers {
		if name == "drop-at-seam" {
			tamper = func(rs []record.Record) []record.Record {
				if len(rs) == 0 {
					return rs
				}
				return rs[:len(rs)-1]
			}
		}
		sharded.SPs[1].SetTamper(tamper)
		out, err := sharded.Query(q)
		if err != nil {
			t.Fatalf("%s: query error %v", name, err)
		}
		if out.VerifyErr == nil {
			t.Fatalf("%s: tampered result passed combined-token verification", name)
		}
		sharded.SPs[1].SetTamper(nil)
	}
}

// TestShardedUpdatesRouteByKey inserts and deletes through the sharded
// owner and checks both that the owning shard absorbed the update and that
// cross-shard queries still verify.
func TestShardedUpdatesRouteByKey(t *testing.T) {
	_, sharded := buildParitySystems(t, workload.UNF, 8_000, 4)
	span2 := sharded.Plan.Span(2)
	key := span2.Lo + 7
	before := sharded.TEs[2].StorageBytes()
	r, err := sharded.Insert(key)
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if sharded.TEs[2].StorageBytes() < before {
		t.Fatal("owning shard TE shrank after insert")
	}
	q := record.Range{Lo: span2.Lo, Hi: span2.Lo + 100}
	out, err := sharded.Query(q)
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("post-insert query: %v / %v", err, out.VerifyErr)
	}
	found := false
	for i := range out.Result {
		if out.Result[i].ID == r.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("inserted record not returned by the owning shard")
	}
	if err := sharded.Delete(r.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	out, err = sharded.Query(q)
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("post-delete query: %v / %v", err, out.VerifyErr)
	}
	for i := range out.Result {
		if out.Result[i].ID == r.ID {
			t.Fatal("deleted record still returned")
		}
	}
	// Cross-shard verification still exact after updates.
	wide := record.Range{Lo: 0, Hi: record.KeyDomain}
	out, err = sharded.Query(wide)
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("post-update full scan: %v / %v", err, out.VerifyErr)
	}
}

// TestShardedEmptyRange: an empty range returns no records and the XOR
// identity, and still "verifies" like the single system.
func TestShardedEmptyRange(t *testing.T) {
	_, sharded := buildParitySystems(t, workload.UNF, 2_000, 3)
	out, err := sharded.Query(record.Range{Lo: 9, Hi: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.VerifyErr != nil || len(out.Result) != 0 || out.VT != digest.Zero || len(out.PerShard) != 0 {
		t.Fatalf("empty range outcome: %+v", out)
	}
}

// TestShardedCacheSizedFromPartition: each shard's parties keep their own
// node tables, which hold exactly the index of the partition (as many
// nodes as a party loaded with that partition alone), and every node read
// of a query counts as a hit, none as a miss.
func TestShardedCacheSizedFromPartition(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 8_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedSystem(ds.Records, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range sharded.Plan.Partition(ds.Records) {
		sp, te, span := sharded.SPs[i], sharded.TEs[i], sharded.Plan.Span(i)
		alone, err := NewSystem(part)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sp.index.NodeCount(), alone.SP.index.NodeCount(); got != want {
			t.Errorf("shard %d: SP holds %d B+-tree nodes, its partition alone %d", i, got, want)
		}
		if got, want := te.tree.NodeCount(), alone.TE.tree.NodeCount(); got != want {
			t.Errorf("shard %d: TE holds %d XB-Tree nodes, its partition alone %d", i, got, want)
		}
		spBefore, teBefore := sp.CacheStats(), te.CacheStats()
		_, spCost, err := sp.Query(span)
		if err != nil {
			t.Fatal(err)
		}
		_, teCost, err := te.GenerateVT(span)
		if err != nil {
			t.Fatal(err)
		}
		spAfter, teAfter := sp.CacheStats(), te.CacheStats()
		if spAfter.Misses != 0 || teAfter.Misses != 0 {
			t.Errorf("shard %d: a node table missed (SP %+v, TE %+v)", i, spAfter, teAfter)
		}
		if got, want := float64(spAfter.Hits-spBefore.Hits), spCost.Index.Accesses; got != want {
			t.Errorf("shard %d: SP counted %v hits for %v index node reads", i, got, want)
		}
		if got := float64(teAfter.Hits - teBefore.Hits); got == 0 || got > teCost.Accesses {
			t.Errorf("shard %d: TE counted %v hits for %v accesses", i, got, teCost.Accesses)
		}
	}
}
