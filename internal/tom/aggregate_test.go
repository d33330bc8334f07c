package tom

import (
	"testing"

	"sae/internal/agg"
	"sae/internal/record"
	"sae/internal/workload"
)

func tomRefAgg(recs []record.Record, q record.Range) agg.Agg {
	var a agg.Agg
	for i := range recs {
		if q.Contains(recs[i].Key) {
			a = a.Add(recs[i].Key)
		}
	}
	return a.Normalize()
}

// TestTOMAggregateParity: the VO-verified scalar equals folding the
// records of a verified range scan.
func TestTOMAggregateParity(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 3000, 100)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sys, err := NewSystem(ds.Records)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	for _, q := range workload.Queries(20, workload.DefaultExtent, 121) {
		out, err := sys.Aggregate(q)
		if err != nil {
			t.Fatalf("Aggregate(%v): %v", q, err)
		}
		if out.VerifyErr != nil {
			t.Fatalf("honest aggregate VO rejected for %v: %v", q, out.VerifyErr)
		}
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
	}
}

// TestTOMAggregateAfterUpdates: the annotated MB-Tree keeps producing
// correct, verifiable aggregate VOs through insert/delete maintenance
// with root re-signing.
func TestTOMAggregateAfterUpdates(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 1000, 100)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sys, err := NewSystem(ds.Records)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	live := append([]record.Record(nil), ds.Records...)
	nextID := record.ID(1_000_000)
	for step := 0; step < 120; step++ {
		if step%3 != 0 {
			k := record.Key((step * 7919) % int(record.KeyDomain))
			r, err := sys.Insert(k, nextID)
			if err != nil {
				t.Fatalf("Insert: %v", err)
			}
			nextID++
			live = append(live, r)
		} else {
			victim := live[len(live)-1]
			if err := sys.Delete(victim.ID, victim.Key); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			live = live[:len(live)-1]
		}
	}
	for _, q := range workload.Queries(12, workload.DefaultExtent, 122) {
		out, err := sys.Aggregate(q)
		if err != nil {
			t.Fatalf("Aggregate: %v", err)
		}
		if out.VerifyErr != nil {
			t.Fatalf("aggregate VO rejected after updates: %v", out.VerifyErr)
		}
		if want := tomRefAgg(live, q); out.Agg != want {
			t.Fatalf("aggregate %v, reference %v after updates", out.Agg, want)
		}
	}
}

// TestTOMAggregateVOFrontierBytes: the aggregate VO is asymptotically
// smaller than the range VO + result for wide ranges.
func TestTOMAggregateVOFrontierBytes(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 5000, 100)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sys, err := NewSystem(ds.Records)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	q := record.Range{Lo: 0, Hi: record.KeyDomain}
	aggOut, err := sys.Aggregate(q)
	if err != nil || aggOut.VerifyErr != nil {
		t.Fatalf("Aggregate: err=%v verify=%v", err, aggOut.VerifyErr)
	}
	scan, err := sys.Query(q)
	if err != nil || scan.VerifyErr != nil {
		t.Fatalf("Query: err=%v verify=%v", err, scan.VerifyErr)
	}
	scanBytes := scan.VO.Size() + len(scan.Result)*record.Size
	if aggOut.VO.Size()*100 > scanBytes {
		t.Fatalf("aggregate response %dB not 100x under scan response %dB",
			aggOut.VO.Size(), scanBytes)
	}
}
