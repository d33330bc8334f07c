package tom

import (
	"bytes"
	"errors"
	"testing"

	"sae/internal/bufpool"
	"sae/internal/exec"
	"sae/internal/mbtree"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/workload"
)

// newBurstPair builds two identical TOM systems sharing one owner key,
// so byte-level VO comparison between the per-request and burst paths is
// meaningful (signatures differ by key, not by serve path).
func newBurstPair(t *testing.T, n int) (*System, *System, *workload.Dataset) {
	t.Helper()
	ds, err := workload.Generate(workload.UNF, n, 210)
	if err != nil {
		t.Fatal(err)
	}
	sysA, err := NewSystem(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	pB := NewProvider(pagestore.NewMem())
	pB.ConfigureCache(bufpool.CapacityFor(len(ds.Records)), bufpool.ChargeAllAccesses)
	if err := pB.Load(ds.Records, sysA.Owner); err != nil {
		t.Fatal(err)
	}
	sysB := &System{Owner: sysA.Owner, Provider: pB}
	return sysA, sysB, ds
}

func tomBurstQueries(n int) []record.Range {
	qs := workload.Queries(n, workload.DefaultExtent, 211)
	qs = append(qs, record.Range{Lo: record.KeyDomain + 1, Hi: record.KeyDomain + 5}) // empty
	qs = append(qs, record.Range{Lo: 0, Hi: 0})
	return qs
}

// TestProviderServeBurstParity pins the TOM streaming serve to the
// materializing reference at every group size, across selectivities from
// empty to full-table: identical record bytes, identical serialized VOs
// and identical per-query access counts as QueryCtx — a burst changes how
// many times the lock and the pin epoch are taken, never what a query
// reads — and the streamed result verifies like the queried one.
func TestProviderServeBurstParity(t *testing.T) {
	sysA, sysB, _ := newBurstPair(t, 4000)
	qs := append(tomBurstQueries(15),
		record.Range{Lo: 0, Hi: record.KeyDomain - 1}, // full table
		record.Range{Lo: 500_000, Hi: 2_000_000},      // mid-size
	)

	wantRecs := make([][]byte, len(qs))
	wantVOs := make([][]byte, len(qs))
	wantStats := make([]pagestore.Stats, len(qs))
	for i, q := range qs {
		ctx := exec.NewContext()
		recs, vo, _, err := sysA.Provider.QueryCtx(ctx, q)
		if err != nil {
			t.Fatalf("QueryCtx(%v): %v", q, err)
		}
		for j := range recs {
			wantRecs[i] = recs[j].AppendBinary(wantRecs[i])
		}
		wantVOs[i] = vo.AppendTo(nil)
		wantStats[i] = ctx.Stats()
	}

	for _, g := range []int{1, 2, 64} {
		lane := exec.NewLane(0)
		var sc BurstScratch
		for lo := 0; lo < len(qs); lo += g {
			group := qs[lo:min(lo+g, len(qs))]
			ctxs := lane.Contexts(len(group))
			got := make([][]record.Record, len(group))
			vos, err := sysB.Provider.ServeBurstCtx(ctxs, group, &sc, func(qi int, r *record.Record) error {
				got[qi] = append(got[qi], *r)
				return nil
			})
			if err != nil {
				t.Fatalf("groups of %d: ServeBurstCtx: %v", g, err)
			}
			if len(vos) != len(group) {
				t.Fatalf("groups of %d: burst returned %d VOs for %d queries", g, len(vos), len(group))
			}
			for i, q := range group {
				var gotRecs []byte
				for j := range got[i] {
					gotRecs = got[i][j].AppendBinary(gotRecs)
				}
				if !bytes.Equal(gotRecs, wantRecs[lo+i]) {
					t.Errorf("groups of %d, query %d (%v): burst records != QueryCtx records", g, lo+i, q)
				}
				if gotVO := vos[i].AppendTo(nil); !bytes.Equal(gotVO, wantVOs[lo+i]) {
					t.Errorf("groups of %d, query %d (%v): burst VO != QueryCtx VO", g, lo+i, q)
				}
				if st := ctxs[i].Stats(); st != wantStats[lo+i] {
					t.Errorf("groups of %d, query %d (%v): burst accesses %+v != QueryCtx accesses %+v",
						g, lo+i, q, st, wantStats[lo+i])
				}
				if err := mbtree.VerifyVO(vos[i], got[i], q.Lo, q.Hi, sysB.Owner.Verifier()); err != nil {
					t.Errorf("groups of %d, query %d (%v): streamed result failed verification: %v", g, lo+i, q, err)
				}
				mbtree.PutVO(vos[i])
			}
		}
	}
}

// TestProviderServeBurstPinHygiene aborts a cached burst mid-flight and
// checks every bufpool pin is returned.
func TestProviderServeBurstPinHygiene(t *testing.T) {
	sys, _, _ := newBurstPair(t, 4000)
	qs := tomBurstQueries(10)
	boom := errors.New("abort mid-burst")
	lane := exec.NewLane(0)
	var sc BurstScratch
	emitted := 0
	_, err := sys.Provider.ServeBurstCtx(lane.Contexts(len(qs)), qs, &sc, func(int, *record.Record) error {
		emitted++
		if emitted == 5 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("ServeBurstCtx error = %v, want %v", err, boom)
	}
	if n := sys.Provider.cache.PinnedCount(); n != 0 {
		t.Fatalf("PinnedCount after aborted TOM burst = %d, want 0", n)
	}
}

// TestProviderServeBurstTampered checks a tampering provider still
// tampers under burst serving and its VOs fail client verification.
func TestProviderServeBurstTampered(t *testing.T) {
	sys, _, ds := newBurstPair(t, 3000)
	q := busyQuery(t, ds)
	sys.Provider.SetTamper(func(rs []record.Record) []record.Record { return rs[1:] })
	defer sys.Provider.SetTamper(nil)

	qs := []record.Range{q, q}
	lane := exec.NewLane(0)
	var sc BurstScratch
	recs := make([][]record.Record, len(qs))
	vos, err := sys.Provider.ServeBurstCtx(lane.Contexts(len(qs)), qs, &sc, func(qi int, r *record.Record) error {
		recs[qi] = append(recs[qi], *r)
		return nil
	})
	if err != nil {
		t.Fatalf("tampered ServeBurstCtx: %v", err)
	}
	for i := range qs {
		if err := mbtree.VerifyVO(vos[i], recs[i], q.Lo, q.Hi, sys.Owner.Verifier()); err == nil {
			t.Fatalf("tampered burst VO %d passed verification", i)
		}
		mbtree.PutVO(vos[i])
	}
}
