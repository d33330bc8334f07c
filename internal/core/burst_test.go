package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/workload"
)

func burstQueries(n int) []record.Range {
	qs := workload.Queries(n, workload.DefaultExtent, 83)
	qs = append(qs, record.Range{Lo: record.KeyDomain + 1, Hi: record.KeyDomain + 5}) // empty
	qs = append(qs, record.Range{Lo: 0, Hi: 0})
	return qs
}

// burstGroupSizes are the group sizes every burst parity test runs at: a
// lone request (a burst of one), the smallest real group, a full lane
// burst.
var burstGroupSizes = []int{1, 2, 64}

// TestServeBurstParity pins the streaming serve path to the materializing
// reference: for identical providers and the same queries, at every group
// size, across selectivities from empty to
// full-table, the emitted records AND each query's access counts must
// match QueryCtx exactly — a burst may amortize locks and dispatches, but
// not change what any single query reads or returns.
func TestServeBurstParity(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 6000, 71)
	if err != nil {
		t.Fatal(err)
	}
	sorted := append([]record.Record(nil), ds.Records...)
	slices.SortFunc(sorted, record.SortByKey)
	qs := append(burstQueries(30),
		record.Range{Lo: 5, Hi: 4},                                   // inverted: the index guards it
		record.Range{Lo: sorted[10].Key, Hi: sorted[10].Key},         // point
		record.Range{Lo: 0, Hi: record.KeyDomain - 1},                // full table
		record.Range{Lo: sorted[5990].Key, Hi: record.KeyDomain - 1}, // tail
	)
	newSP := func() *ServiceProvider {
		sp := NewServiceProvider(pagestore.NewMem())
		if err := sp.Load(ds.Records); err != nil {
			t.Fatal(err)
		}
		return sp
	}
	// Reference: QueryCtx, records serialized per query, stats per query.
	ref := newSP()
	wantBytes := make([][]byte, len(qs))
	wantStats := make([]pagestore.Stats, len(qs))
	for i, q := range qs {
		ctx := exec.NewContext()
		recs, _, err := ref.QueryCtx(ctx, q)
		if err != nil {
			t.Fatalf("QueryCtx(%v): %v", q, err)
		}
		for j := range recs {
			wantBytes[i] = recs[j].AppendBinary(wantBytes[i])
		}
		wantStats[i] = ctx.Stats()
	}
	for _, g := range burstGroupSizes {
		// Burst path on an identical twin, g queries at a time.
		sp := newSP()
		lane := exec.NewLane(0)
		var sc BurstScratch
		for lo := 0; lo < len(qs); lo += g {
			group := qs[lo:min(lo+g, len(qs))]
			ctxs := lane.Contexts(len(group))
			gotBytes := make([][]byte, len(group))
			err := sp.ServeBurstCtx(ctxs, group, &sc, func(qi int, enc []byte) error {
				gotBytes[qi] = append(gotBytes[qi], enc...)
				return nil
			})
			if err != nil {
				t.Fatalf("groups of %d: ServeBurstCtx: %v", g, err)
			}
			for i := range group {
				if !bytes.Equal(gotBytes[i], wantBytes[lo+i]) {
					t.Errorf("groups of %d, query %d (%v): burst records != QueryCtx records", g, lo+i, group[i])
				}
				if got := ctxs[i].Stats(); got != wantStats[lo+i] {
					t.Errorf("groups of %d, query %d (%v): burst accesses %+v != QueryCtx accesses %+v",
						g, lo+i, group[i], got, wantStats[lo+i])
				}
			}
		}
	}
}

// TestServeBurstEmitError checks an emit error aborts the whole burst
// with that error (the wire layer then falls back to per-request
// serving, which isolates the failure).
func TestServeBurstEmitError(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 3000, 72)
	if err != nil {
		t.Fatal(err)
	}
	sp := NewServiceProvider(pagestore.NewMem())
	if err := sp.Load(ds.Records); err != nil {
		t.Fatal(err)
	}
	qs := burstQueries(8)
	boom := errors.New("emit failed")
	lane := exec.NewLane(0)
	var sc BurstScratch
	n := 0
	err = sp.ServeBurstCtx(lane.Contexts(len(qs)), qs, &sc, func(int, []byte) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("ServeBurstCtx error = %v, want %v", err, boom)
	}
}

// TestGenerateVTBurstParity pins burst token generation to the
// per-request reference at every group size: same token bytes, same
// per-query accesses.
func TestGenerateVTBurstParity(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 6000, 73)
	if err != nil {
		t.Fatal(err)
	}
	newTE := func() *TrustedEntity {
		te := NewTrustedEntity(pagestore.NewMem())
		if err := te.Load(ds.Records); err != nil {
			t.Fatal(err)
		}
		return te
	}
	ref := newTE()
	qs := append(burstQueries(25),
		record.Range{Lo: 0, Hi: record.KeyDomain - 1},                  // every record
		record.Range{Lo: ds.Records[100].Key, Hi: ds.Records[100].Key}, // one exact key
	)

	wantVTs := make([]digest.Digest, len(qs))
	wantStats := make([]pagestore.Stats, len(qs))
	for i, q := range qs {
		ctx := exec.NewContext()
		vt, _, err := ref.GenerateVTCtx(ctx, q)
		if err != nil {
			t.Fatalf("GenerateVTCtx(%v): %v", q, err)
		}
		wantVTs[i] = vt
		wantStats[i] = ctx.Stats()
	}

	for _, g := range burstGroupSizes {
		te := newTE()
		lane := exec.NewLane(0)
		for lo := 0; lo < len(qs); lo += g {
			group := qs[lo:min(lo+g, len(qs))]
			ctxs := lane.Contexts(len(group))
			gotVTs := make([]digest.Digest, len(group))
			if err := te.GenerateVTBurst(ctxs, group, gotVTs); err != nil {
				t.Fatalf("groups of %d: GenerateVTBurst: %v", g, err)
			}
			for i := range group {
				if gotVTs[i] != wantVTs[lo+i] {
					t.Errorf("groups of %d, query %d (%v): burst token != per-request token", g, lo+i, group[i])
				}
				if got := ctxs[i].Stats(); got != wantStats[lo+i] {
					t.Errorf("groups of %d, query %d (%v): burst accesses %+v != per-request accesses %+v",
						g, lo+i, group[i], got, wantStats[lo+i])
				}
			}
		}
	}
}

// TestVerifyEncodedBurstParity checks the single-dispatch burst verifier
// accepts exactly what per-query VerifyEncoded accepts — and rejects a
// burst containing one bad payload, naming the failing query.
func TestVerifyEncodedBurstParity(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 4000, 74)
	if err != nil {
		t.Fatal(err)
	}
	sp := NewServiceProvider(pagestore.NewMem())
	te := NewTrustedEntity(pagestore.NewMem())
	if err := sp.Load(ds.Records); err != nil {
		t.Fatal(err)
	}
	if err := te.Load(ds.Records); err != nil {
		t.Fatal(err)
	}
	qs := burstQueries(12)
	encs := make([][]byte, len(qs))
	vts := make([]digest.Digest, len(qs))
	for i, q := range qs {
		recs, _, err := sp.QueryCtx(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		for j := range recs {
			encs[i] = recs[j].AppendBinary(encs[i])
		}
		vt, _, err := te.GenerateVTCtx(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		vts[i] = vt
	}
	vp := NewVerifyPool(0)

	// Every payload accepted individually must be accepted as a burst.
	for i, q := range qs {
		if _, err := vp.VerifyEncoded(q, encs[i], vts[i]); err != nil {
			t.Fatalf("per-query VerifyEncoded(%v): %v", q, err)
		}
	}
	sums, err := vp.VerifyEncodedBurst(qs, encs, vts, nil)
	if err != nil {
		t.Fatalf("VerifyEncodedBurst (honest): %v", err)
	}
	if len(sums) != len(qs) {
		t.Fatalf("VerifyEncodedBurst returned %d sums for %d queries", len(sums), len(qs))
	}

	// Flip one byte in one payload: the burst must fail verification.
	bad := -1
	for i := range encs {
		if len(encs[i]) > 0 {
			bad = i
			break
		}
	}
	if bad < 0 {
		t.Fatal("no non-empty payload to tamper with")
	}
	tampered := append([]byte(nil), encs[bad]...)
	tampered[record.Size-1] ^= 0xFF
	encs[bad] = tampered
	if _, err := vp.VerifyEncodedBurst(qs, encs, vts, sums[:0]); !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("tampered burst error = %v, want ErrVerificationFailed", err)
	}
}

// TestServeBurstTampered checks a tampering SP still tampers under burst
// serving — the burst emits exactly the (tampered) result the query path
// returns, so attack experiments behave identically on every entry point
// — and that the tampered burst fails burst verification.
func TestServeBurstTampered(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 3000, 75)
	if err != nil {
		t.Fatal(err)
	}
	sp := NewServiceProvider(pagestore.NewMem())
	te := NewTrustedEntity(pagestore.NewMem())
	if err := sp.Load(ds.Records); err != nil {
		t.Fatal(err)
	}
	if err := te.Load(ds.Records); err != nil {
		t.Fatal(err)
	}
	sp.SetTamper(DropTamper(0))
	qs := workload.Queries(6, workload.DefaultExtent, 76)
	lane := exec.NewLane(0)
	var sc BurstScratch
	encs := make([][]byte, len(qs))
	err = sp.ServeBurstCtx(lane.Contexts(len(qs)), qs, &sc, func(qi int, enc []byte) error {
		encs[qi] = append(encs[qi], enc...)
		return nil
	})
	if err != nil {
		t.Fatalf("tampered ServeBurstCtx: %v", err)
	}
	for i, q := range qs {
		want, _, err := sp.Query(q)
		if err != nil {
			t.Fatalf("tampered Query(%v): %v", q, err)
		}
		var wantEnc []byte
		for j := range want {
			wantEnc = want[j].AppendBinary(wantEnc)
		}
		if !bytes.Equal(encs[i], wantEnc) {
			t.Fatalf("query %d: tampered burst result != tampered Query result", i)
		}
	}
	vts := make([]digest.Digest, len(qs))
	if err := te.GenerateVTBurst(lane.Contexts(len(qs)), qs, vts); err != nil {
		t.Fatal(err)
	}
	if _, err := NewVerifyPool(0).VerifyEncodedBurst(qs, encs, vts, nil); !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("tampered burst verification error = %v, want ErrVerificationFailed", err)
	}
}
