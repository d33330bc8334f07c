package heapfile

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"sae/internal/bufpool"
	"sae/internal/exec"
	"sae/internal/pagestore"
	"sae/internal/record"
)

// buildBurstHeap builds a heap file plus the run set the burst tests
// serve: one run per "query", including an empty run, a single record and
// the whole file.
func buildBurstHeap(t *testing.T, n int) (*File, [][]RID) {
	t.Helper()
	f, rids, err := Build(pagestore.NewMem(), buildRecords(n))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	runs := [][]RID{
		rids[:len(rids)/3],
		{},                                // empty run still gets its context charged nothing
		rids[len(rids)/2:],                // long tail run
		rids[len(rids)/4 : 1+len(rids)/4], // single record
		rids,                              // whole file
	}
	return f, runs
}

// parityRuns builds the run mix TestServeBurstCtxParity serves over a
// 3000-record file whose first 1000 records have every fifth slot
// tombstoned (mid-page gaps), followed by 37 appended records on five
// tail pages, one of them tombstoned again: short runs, runs crossing
// hundreds of pages, empty runs, single records and revisits, over the
// live RIDs only — as the index hands them out — and, last, one run that
// asks for a tombstoned slot and must fail with ErrDeleted.
func parityRuns(t *testing.T) (*File, *pagestore.Counting, [][]RID) {
	t.Helper()
	store := pagestore.NewCounting(pagestore.NewMem())
	f, rids, err := Build(store, buildRecords(3000))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for i := 0; i < 37; i++ {
		rid, err := f.Append(record.Synthesize(record.ID(10_000+i), record.KeyDomain-1))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		rids = append(rids, rid)
	}
	var live []RID
	for i, rid := range rids {
		if (i < 1000 && i%5 == 0) || i == 3020 {
			if err := f.Delete(rid); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			continue
		}
		live = append(live, rid)
	}
	rng := rand.New(rand.NewSource(5))
	var runs [][]RID
	for i := 0; i < 70; i++ {
		lo := rng.Intn(len(live))
		switch i % 7 {
		case 0: // > 100 pages
			runs = append(runs, live[min(lo, len(live)-900):][:900])
		case 1:
			runs = append(runs, nil)
		case 2:
			runs = append(runs, live[lo:lo+1])
		case 3: // revisit the previous run's pages
			runs = append(runs, runs[len(runs)-1])
		default: // a few pages
			runs = append(runs, live[lo:min(lo+1+rng.Intn(60), len(live))])
		}
	}
	runs = append(runs, live[len(live)-60:])  // the appended tail pages
	return f, store, append(runs, rids[3:30]) // rids[5] is tombstoned
}

// TestServeBurstCtxParity pins the one streaming fetch to its reference,
// GetManyCtx run by run: identical record bytes, identical per-run access
// counts, and identical totals at the store, at group sizes 1, 2 and 64.
// Attaching a cache (UseCache is a no-op) changes none of it: every
// borrowed page is charged as one read.
func TestServeBurstCtxParity(t *testing.T) {
	f, store, runs := parityRuns(t)
	wantRecs := make([][]byte, len(runs))
	wantErrs := make([]error, len(runs))
	wantStats := make([]pagestore.Stats, len(runs))
	store.Reset()
	for i, run := range runs {
		ctx := exec.NewContext()
		recs, err := f.GetManyCtx(ctx, run)
		for j := range recs {
			wantRecs[i] = recs[j].AppendBinary(wantRecs[i])
		}
		wantErrs[i], wantStats[i] = err, ctx.Stats()
	}
	if !errors.Is(wantErrs[len(runs)-1], ErrDeleted) {
		t.Fatalf("reference served the tombstoned run: err = %v", wantErrs[len(runs)-1])
	}
	wantTotal := store.Stats()

	modes := []struct {
		name  string
		cache *bufpool.Cache
	}{
		{"uncached", nil},
		{"charge-all", new(bufpool.Cache)},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			f.UseCache(mode.cache)
			for _, g := range []int{1, 2, 64} {
				store.Reset()
				lane := exec.NewLane(0)
				for lo := 0; lo < len(runs); lo += g {
					hi := min(lo+g, len(runs))
					ctxs := lane.Contexts(hi - lo)
					got := make([][]byte, hi-lo)
					err := f.ServeBurstCtx(ctxs, runs[lo:hi], func(qi int, enc []byte) error {
						if len(enc) == 0 || len(enc)%record.Size != 0 {
							t.Fatalf("emit of %d bytes is not whole records", len(enc))
						}
						got[qi] = append(got[qi], enc...)
						return nil
					})
					if last := hi == len(runs); (err != nil) != last || (last && !errors.Is(err, ErrDeleted)) {
						t.Fatalf("groups of %d, runs %d..%d: err = %v, want %v", g, lo, hi-1, err, wantErrs[hi-1])
					}
					for qi := range got {
						i := lo + qi
						if wantErrs[i] == nil && !bytes.Equal(got[qi], wantRecs[i]) {
							t.Fatalf("groups of %d, run %d: bytes != GetManyCtx records", g, i)
						}
						if s := ctxs[qi].Stats(); s != wantStats[i] {
							t.Fatalf("groups of %d, run %d: accesses %+v != GetManyCtx accesses %+v", g, i, s, wantStats[i])
						}
					}
				}
				if s := store.Stats(); s != wantTotal {
					t.Fatalf("groups of %d: store counted %+v, GetManyCtx %+v", g, s, wantTotal)
				}
			}
		})
	}
}

// TestServeBurstCtxEmitsPerPage: a clustered run is one emit per page, a
// tombstone splits its page's stretch in two, and a run that skips a slot
// (a RID the index does not hand out) splits it too.
func TestServeBurstCtxEmitsPerPage(t *testing.T) {
	f, rids, err := Build(pagestore.NewMem(), buildRecords(8*RecordsPerPage))
	if err != nil {
		t.Fatal(err)
	}
	count := func(run []RID) (emits, recs int) {
		t.Helper()
		err := f.ServeBurstCtx([]*exec.Context{nil}, [][]RID{run}, func(_ int, enc []byte) error {
			emits++
			recs += len(enc) / record.Size
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return emits, recs
	}
	if e, n := count(rids[4:60]); e != 8 || n != 56 {
		t.Fatalf("clustered run over 8 pages: %d emits of %d records, want 8 of 56", e, n)
	}
	if err := f.Delete(rids[11]); err != nil {
		t.Fatal(err)
	}
	live := append(append([]RID{}, rids[8:11]...), rids[12:16]...)
	if e, n := count(live); e != 2 || n != 7 {
		t.Fatalf("page with a tombstone: %d emits of %d records, want 2 of 7", e, n)
	}
	if e, _ := count([]RID{rids[16], rids[18], rids[19]}); e != 2 {
		t.Fatalf("run skipping a slot: %d emits, want 2", e)
	}
}

// TestServeBurstCtxEmitError: an emit error aborts the burst where it was
// raised, mid-run and on the very first emit, and is returned as is.
func TestServeBurstCtxEmitError(t *testing.T) {
	f, runs := buildBurstHeap(t, 2000)
	boom := errors.New("cancelled mid-burst")
	for _, at := range []int{1, 90} { // 90 emits (pages) is inside the third run
		lane := exec.NewLane(0)
		emitted := 0
		err := f.ServeBurstCtx(lane.Contexts(len(runs)), runs, func(int, []byte) error {
			emitted++
			if emitted == at {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) || emitted != at {
			t.Fatalf("abort at emit %d: err = %v after %d emits, want %v", at, err, emitted, boom)
		}
	}
}

// TestServeBurstCtxConcurrent hammers one file with concurrent bursts,
// some of which abort mid-flight, and checks every completed burst's
// bytes. Run with -race: borrowers share the store's page bytes, and the
// serve path must never write to them.
func TestServeBurstCtxConcurrent(t *testing.T) {
	f, runs := buildBurstHeap(t, 3000)
	want := make([][]byte, len(runs))
	for i, run := range runs {
		recs, err := f.GetMany(run)
		if err != nil {
			t.Fatal(err)
		}
		for j := range recs {
			want[i] = recs[j].AppendBinary(want[i])
		}
	}
	boom := errors.New("abort")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lane := exec.NewLane(g)
			got := make([][]byte, len(runs))
			for iter := 0; iter < 20; iter++ {
				abortAt := -1
				if (g+iter)%3 == 0 {
					abortAt = 10 + 7*iter
				}
				emitted := 0
				for i := range got {
					got[i] = got[i][:0]
				}
				err := f.ServeBurstCtx(lane.Contexts(len(runs)), runs, func(qi int, enc []byte) error {
					emitted++
					if emitted == abortAt {
						return boom
					}
					got[qi] = append(got[qi], enc...)
					return nil
				})
				if err != nil {
					if !errors.Is(err, boom) {
						t.Errorf("goroutine %d iter %d: %v", g, iter, err)
						return
					}
					continue
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Errorf("goroutine %d iter %d run %d: bytes differ from GetMany", g, iter, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
