package core

import (
	"math/rand"
	"testing"

	"sae/internal/agg"
	"sae/internal/exec"
	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/workload"
)

// refAgg folds the reference aggregate by linear scan over the dataset.
func refAgg(recs []record.Record, q record.Range) agg.Agg {
	var a agg.Agg
	for i := range recs {
		if q.Contains(recs[i].Key) {
			a = a.Add(recs[i].Key)
		}
	}
	return a
}

// TestAggregateParity: the verified fast-path scalar equals folding the
// records of a verified range scan, across distributions and ranges.
func TestAggregateParity(t *testing.T) {
	for _, dist := range []workload.Distribution{workload.UNF, workload.SKW} {
		sys, ds := newTestSystem(t, 3000, dist)
		for _, q := range workload.Queries(25, workload.DefaultExtent, 111) {
			out, err := sys.Aggregate(q)
			if err != nil {
				t.Fatalf("Aggregate(%v): %v", q, err)
			}
			if out.VerifyErr != nil {
				t.Fatalf("honest aggregate rejected for %v: %v", q, out.VerifyErr)
			}
			// Fold the verified range scan's records — the slow path the
			// fast path must agree with bit for bit.
			scan, err := sys.Query(q)
			if err != nil {
				t.Fatalf("Query(%v): %v", q, err)
			}
			if scan.VerifyErr != nil {
				t.Fatalf("range scan rejected: %v", scan.VerifyErr)
			}
			var folded agg.Agg
			for i := range scan.Result {
				folded = folded.Add(scan.Result[i].Key)
			}
			if out.Agg != folded.Normalize() {
				t.Fatalf("aggregate %v, scan-and-fold %v for %v", out.Agg, folded, q)
			}
			if want := refAgg(ds.Records, q); out.Agg != want.Normalize() {
				t.Fatalf("aggregate %v, reference %v for %v", out.Agg, want, q)
			}
		}
	}
}

// TestAggregateEmptyAndInverted: ranges with no records verify as the
// empty aggregate.
func TestAggregateEmptyAndInverted(t *testing.T) {
	sys, _ := newTestSystem(t, 500, workload.UNF)
	out, err := sys.Aggregate(record.Range{Lo: record.KeyDomain + 1, Hi: record.KeyDomain + 50})
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if out.VerifyErr != nil {
		t.Fatalf("empty aggregate rejected: %v", out.VerifyErr)
	}
	if !out.Agg.Empty() {
		t.Fatalf("aggregate over empty range = %v", out.Agg)
	}
}

// TestAggregateAfterUpdates: annotations stay correct through the
// insert/delete maintenance path.
func TestAggregateAfterUpdates(t *testing.T) {
	sys, ds := newTestSystem(t, 1500, workload.UNF)
	live := append([]record.Record(nil), ds.Records...)
	rng := rand.New(rand.NewSource(112))
	for step := 0; step < 400; step++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			r, err := sys.Insert(record.Key(rng.Intn(int(record.KeyDomain))))
			if err != nil {
				t.Fatalf("Insert: %v", err)
			}
			live = append(live, r)
		} else {
			i := rng.Intn(len(live))
			if err := sys.Delete(live[i].ID); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	for trial := 0; trial < 30; trial++ {
		lo := record.Key(rng.Intn(int(record.KeyDomain)))
		q := record.Range{Lo: lo, Hi: lo + record.Key(rng.Intn(10_000))}
		out, err := sys.Aggregate(q)
		if err != nil {
			t.Fatalf("Aggregate: %v", err)
		}
		if out.VerifyErr != nil {
			t.Fatalf("aggregate rejected after updates: %v", out.VerifyErr)
		}
		if want := refAgg(live, q).Normalize(); out.Agg != want {
			t.Fatalf("aggregate %v, reference %v after updates", out.Agg, want)
		}
	}
}

// TestAggregateTamperDetected: a malicious SP inflating (or otherwise
// forging) the scalar is caught by the token comparison.
func TestAggregateTamperDetected(t *testing.T) {
	sys, _ := newTestSystem(t, 2000, workload.UNF)
	q := record.Range{Lo: 10_000, Hi: 60_000}

	tampers := map[string]AggTamper{
		"inflate":  InflateAggTamper(3, 20_000),
		"deflate":  func(a agg.Agg) agg.Agg { a.Count--; a.Sum -= uint64(a.Min); return a },
		"min-skew": func(a agg.Agg) agg.Agg { a.Min = 0; return a },
		"max-skew": func(a agg.Agg) agg.Agg { a.Max = record.KeyDomain; return a },
		"zero-out": func(agg.Agg) agg.Agg { return agg.Agg{} },
	}
	for name, tamper := range tampers {
		sys.SP.SetAggTamper(tamper)
		out, err := sys.Aggregate(q)
		if err != nil {
			t.Fatalf("%s: Aggregate: %v", name, err)
		}
		if out.VerifyErr == nil {
			t.Fatalf("%s: forged aggregate %v verified", name, out.Agg)
		}
	}
	sys.SP.SetAggTamper(nil)
	out, err := sys.Aggregate(q)
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("honest aggregate after tamper cleared: err=%v verify=%v", err, out.VerifyErr)
	}
}

// TestAggregateTokenRangeBinding: a token for one range cannot vouch for
// another (replay defense).
func TestAggregateTokenRangeBinding(t *testing.T) {
	sys, _ := newTestSystem(t, 2000, workload.UNF)
	q1 := record.Range{Lo: 10_000, Hi: 40_000}
	q2 := record.Range{Lo: 10_000, Hi: 50_000}
	a1, _, err := sys.SP.AggregateCtx(exec.NewContext(), q1)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	tok1, _, err := sys.TE.AggTokenCtx(exec.NewContext(), q1)
	if err != nil {
		t.Fatalf("AggToken: %v", err)
	}
	if _, err := sys.Client.VerifyAggregate(q2, a1, tok1); err == nil {
		t.Fatal("token for q1 accepted as proof for q2")
	}
	if _, err := sys.Client.VerifyAggregate(q1, a1, tok1); err != nil {
		t.Fatalf("honest binding rejected: %v", err)
	}
}

// TestShardedAggregateParity: the scattered, seam-checked merge equals the
// single-system answer across shard counts.
func TestShardedAggregateParity(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 4000, 100)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for _, shards := range []int{1, 2, 5} {
		sys, err := NewShardedSystem(ds.Records, shards)
		if err != nil {
			t.Fatalf("NewShardedSystem(%d): %v", shards, err)
		}
		for _, q := range workload.Queries(15, workload.DefaultExtent, 113) {
			out, err := sys.Aggregate(q)
			if err != nil {
				t.Fatalf("shards=%d Aggregate(%v): %v", shards, q, err)
			}
			if out.VerifyErr != nil {
				t.Fatalf("shards=%d honest aggregate rejected: %v", shards, out.VerifyErr)
			}
			if want := refAgg(ds.Records, q).Normalize(); out.Agg != want {
				t.Fatalf("shards=%d aggregate %v, want %v", shards, out.Agg, want)
			}
		}
	}
}

// TestShardedAggregateTamperDetected: one shard's forged partial fails
// the scattered verification.
func TestShardedAggregateTamperDetected(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 3000, 100)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sys, err := NewShardedSystem(ds.Records, 4)
	if err != nil {
		t.Fatalf("NewShardedSystem: %v", err)
	}
	q := record.Range{Lo: 0, Hi: record.KeyDomain}
	sys.SPs[2].SetAggTamper(InflateAggTamper(1, sys.Plan.Span(2).Lo))
	out, err := sys.Aggregate(q)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if out.VerifyErr == nil {
		t.Fatal("forged shard partial verified")
	}
}

// TestMergeAggSeamChecks: suppressed, duplicated, re-clamped and escaping
// partials all fail the merge; the honest tiling passes.
func TestMergeAggSeamChecks(t *testing.T) {
	q := record.Range{Lo: 100, Hi: 999}
	honest := []shard.AggPart{
		{Sub: record.Range{Lo: 100, Hi: 399}, Agg: agg.OfKey(200, 5)},
		{Sub: record.Range{Lo: 400, Hi: 699}, Agg: agg.OfKey(500, 3)},
		{Sub: record.Range{Lo: 700, Hi: 999}, Agg: agg.OfKey(800, 2)},
	}
	want := agg.Agg{Count: 10, Sum: 5*200 + 3*500 + 2*800, Min: 200, Max: 800}
	got, err := shard.MergeAgg(q, honest)
	if err != nil {
		t.Fatalf("honest tiling rejected: %v", err)
	}
	if got != want {
		t.Fatalf("merged %v, want %v", got, want)
	}

	attacks := map[string][]shard.AggPart{
		"suppress-middle": {honest[0], honest[2]},
		"suppress-first":  {honest[1], honest[2]},
		"suppress-last":   {honest[0], honest[1]},
		"duplicate":       {honest[0], honest[1], honest[1], honest[2]},
		"overlap": {honest[0],
			{Sub: record.Range{Lo: 300, Hi: 699}, Agg: agg.OfKey(500, 3)}, honest[2]},
		"gap": {honest[0],
			{Sub: record.Range{Lo: 450, Hi: 699}, Agg: agg.OfKey(500, 3)}, honest[2]},
		"overhang": {honest[0], honest[1],
			{Sub: record.Range{Lo: 700, Hi: 1200}, Agg: agg.OfKey(800, 2)}},
		"escaping-min": {honest[0],
			{Sub: record.Range{Lo: 400, Hi: 699}, Agg: agg.OfKey(399, 3)}, honest[2]},
		"trailing-extra": {honest[0], honest[1], honest[2],
			{Sub: record.Range{Lo: 100, Hi: 399}, Agg: agg.OfKey(200, 5)}},
		"empty": {},
	}
	for name, parts := range attacks {
		if _, err := shard.MergeAgg(q, parts); err == nil {
			t.Fatalf("%s: tampered partial set merged cleanly", name)
		}
	}
}

// TestAggregateResponseConstantSize: the aggregate answer plus token is
// constant-size regardless of result cardinality — the response-bytes
// half of the fast-path win.
func TestAggregateResponseConstantSize(t *testing.T) {
	if agg.TokenSize != agg.Size+20 {
		t.Fatalf("TokenSize = %d", agg.TokenSize)
	}
	sys, _ := newTestSystem(t, 3000, workload.UNF)
	wide := record.Range{Lo: 0, Hi: record.KeyDomain}
	out, err := sys.Aggregate(wide)
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("Aggregate: err=%v verify=%v", err, out.VerifyErr)
	}
	if out.Agg.Count != 3000 {
		t.Fatalf("full-domain count = %d", out.Agg.Count)
	}
	// The wire response is Agg (24B) + Token (44B): 68 bytes, vs 500 per
	// record on the scan path.
	if agg.Size+agg.TokenSize >= record.Size {
		t.Fatal("aggregate response not smaller than one record")
	}
}
