// Cross-model integration tests: both outsourcing models answer the same
// workload over the same dataset, so their (verified) results must agree
// exactly, record for record.
package sae

import (
	"testing"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/tom"
	"sae/internal/workload"
)

func TestModelsAgreeOnEveryQuery(t *testing.T) {
	for _, dist := range []workload.Distribution{workload.UNF, workload.SKW} {
		t.Run(string(dist), func(t *testing.T) {
			ds, err := workload.Generate(dist, 8_000, 500)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			saeSys, err := core.NewSystem(ds.Records)
			if err != nil {
				t.Fatalf("core.NewSystem: %v", err)
			}
			tomSys, err := tom.NewSystem(ds.Records)
			if err != nil {
				t.Fatalf("tom.NewSystem: %v", err)
			}
			for _, q := range workload.Queries(25, workload.DefaultExtent, 501) {
				saeOut, err := saeSys.Query(q)
				if err != nil {
					t.Fatalf("SAE query: %v", err)
				}
				tomOut, err := tomSys.Query(q)
				if err != nil {
					t.Fatalf("TOM query: %v", err)
				}
				if saeOut.VerifyErr != nil || tomOut.VerifyErr != nil {
					t.Fatalf("verification failed: sae=%v tom=%v", saeOut.VerifyErr, tomOut.VerifyErr)
				}
				if len(saeOut.Result) != len(tomOut.Result) {
					t.Fatalf("models disagree on %v: %d vs %d records",
						q, len(saeOut.Result), len(tomOut.Result))
				}
				// Same records in the same (key, id) order.
				for i := range saeOut.Result {
					if !saeOut.Result[i].Equal(&tomOut.Result[i]) {
						t.Fatalf("models disagree on record %d of %v", i, q)
					}
				}
			}
		})
	}
}

func TestModelsAgreeAfterSharedUpdates(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 4_000, 502)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	saeSys, err := core.NewSystem(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	tomSys, err := tom.NewSystem(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	// Apply the same logical updates to both models.
	var saeRecs []record.Record
	for i := 0; i < 50; i++ {
		key := record.Key(100_000 + i*1000)
		r, err := saeSys.Insert(key)
		if err != nil {
			t.Fatalf("SAE insert: %v", err)
		}
		saeRecs = append(saeRecs, r)
		if _, err := tomSys.Insert(key, r.ID); err != nil {
			t.Fatalf("TOM insert: %v", err)
		}
	}
	for _, r := range saeRecs[:20] {
		if err := saeSys.Delete(r.ID); err != nil {
			t.Fatalf("SAE delete: %v", err)
		}
		if err := tomSys.Delete(r.ID, r.Key); err != nil {
			t.Fatalf("TOM delete: %v", err)
		}
	}
	q := record.Range{Lo: 100_000, Hi: 160_000}
	saeOut, err := saeSys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	tomOut, err := tomSys.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if saeOut.VerifyErr != nil || tomOut.VerifyErr != nil {
		t.Fatalf("verification after updates: sae=%v tom=%v", saeOut.VerifyErr, tomOut.VerifyErr)
	}
	if len(saeOut.Result) != len(tomOut.Result) {
		t.Fatalf("post-update disagreement: %d vs %d", len(saeOut.Result), len(tomOut.Result))
	}
}

// TestFigureShapesEndToEnd pins the four headline relationships on a single
// mid-size build, independent of the experiments package.
func TestFigureShapesEndToEnd(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 30_000, 503)
	if err != nil {
		t.Fatal(err)
	}
	saeSys, err := core.NewSystem(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	tomSys, err := tom.NewSystem(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Queries(20, workload.DefaultExtent, 504)
	var voBytes int64
	var saeIdx, tomIdx, teAcc float64
	for _, q := range queries {
		saeOut, err := saeSys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		tomOut, err := tomSys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		voBytes += int64(tomOut.VO.Size())
		saeIdx += saeOut.SPCost.Index.Accesses
		tomIdx += tomOut.SPCost.Index.Accesses
		teAcc += saeOut.TECost.Accesses
	}
	n := int64(len(queries))
	// Figure 5: VO orders of magnitude above the 20-byte VT.
	if voBytes/n < 100*core.VTSize {
		t.Fatalf("avg VO %d B not >> VT %d B", voBytes/n, core.VTSize)
	}
	// Figure 6: SAE index work strictly below TOM's; TE tiny.
	if saeIdx >= tomIdx {
		t.Fatalf("SAE index accesses (%g) not below TOM (%g)", saeIdx, tomIdx)
	}
	if teAcc >= tomIdx {
		t.Fatalf("TE accesses (%g) not below TOM SP (%g)", teAcc, tomIdx)
	}
	// Figure 8: TE storage a small fraction of the SP's.
	if saeSys.TE.StorageBytes()*4 > saeSys.SP.StorageBytes() {
		t.Fatal("TE storage not a small fraction of SP storage")
	}
}
