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

// buildBurstHeap builds a cached heap file plus the run set the burst
// tests serve: one run per "query", including an empty run and runs long
// enough to cross the scan threshold.
func buildBurstHeap(t *testing.T, n, cachePages int) (*File, [][]RID) {
	t.Helper()
	recs := buildRecords(n)
	f, rids, err := Build(pagestore.NewMem(), recs)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	f.UseCache(bufpool.New(cachePages, bufpool.ChargeAllAccesses))
	runs := [][]RID{
		rids[:len(rids)/3],
		{},                                // empty run still gets its context charged nothing
		rids[len(rids)/2:],                // long tail run
		rids[len(rids)/4 : 1+len(rids)/4], // single record
		rids,                              // whole file: crosses the scan threshold
	}
	return f, runs
}

// parityRuns builds the run mix TestServeBurstCtxParity serves over a
// 3000-record file whose first 1000 records have every fifth slot
// tombstoned: short runs (well under exec.ScanThreshold pages), long
// runs far past it, empty runs, single records and revisits, over the
// live RIDs only — as the index hands them out — and, last, one run that
// asks for a tombstoned slot and must fail with ErrDeleted.
func parityRuns(t *testing.T) (*File, [][]RID) {
	t.Helper()
	f, rids, err := Build(pagestore.NewMem(), buildRecords(3000))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var live []RID
	for i, rid := range rids {
		if i < 1000 && i%5 == 0 {
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
		case 0: // past the scan threshold: > 64 pages
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
	return f, append(runs, rids[3:30]) // rids[5] is tombstoned
}

// TestServeBurstCtxParity pins the one streaming fetch to its reference,
// GetManyCtx run by run: identical records, per-run access counts and
// cache counters (hits, misses, evictions), and every pin returned —
// without a cache and under both charge policies with a cache small
// enough to evict, at group sizes 1, 2 and 64.
func TestServeBurstCtxParity(t *testing.T) {
	f, runs := parityRuns(t)
	modes := []struct {
		name   string
		cached bool
		policy bufpool.ChargePolicy
	}{
		{"uncached", false, 0},
		{"charge-all", true, bufpool.ChargeAllAccesses},
		{"charge-misses", true, bufpool.ChargeMissesOnly},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			var cache *bufpool.Cache
			freshCache := func() {
				cache = nil
				if mode.cached {
					cache = bufpool.New(48, mode.policy)
				}
				f.UseCache(cache)
			}

			freshCache()
			wantRecs := make([][]byte, len(runs))
			wantErrs := make([]error, len(runs))
			wantStats := make([]pagestore.Stats, len(runs))
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
			var wantCache bufpool.Stats
			if cache != nil {
				wantCache = cache.Stats()
			}

			for _, g := range []int{1, 2, 64} {
				freshCache()
				lane := exec.NewLane(0)
				for lo := 0; lo < len(runs); lo += g {
					hi := min(lo+g, len(runs))
					ctxs := lane.Contexts(hi - lo)
					got := make([][]byte, hi-lo)
					err := f.ServeBurstCtx(ctxs, runs[lo:hi], func(qi int, r *record.Record) error {
						got[qi] = r.AppendBinary(got[qi])
						return nil
					})
					if last := hi == len(runs); (err != nil) != last || (last && !errors.Is(err, ErrDeleted)) {
						t.Fatalf("groups of %d, runs %d..%d: err = %v, want %v", g, lo, hi-1, err, wantErrs[hi-1])
					}
					for qi := range got {
						i := lo + qi
						if wantErrs[i] == nil && !bytes.Equal(got[qi], wantRecs[i]) {
							t.Fatalf("groups of %d, run %d: records != GetManyCtx records", g, i)
						}
						if s := ctxs[qi].Stats(); s != wantStats[i] {
							t.Fatalf("groups of %d, run %d: accesses %+v != GetManyCtx accesses %+v", g, i, s, wantStats[i])
						}
					}
					if cache != nil && cache.PinnedCount() != 0 {
						t.Fatalf("groups of %d: %d pages pinned after a burst", g, cache.PinnedCount())
					}
				}
				if cache != nil {
					if s := cache.Stats(); s != wantCache {
						t.Fatalf("groups of %d: cache counters %+v != GetManyCtx counters %+v", g, s, wantCache)
					}
				}
			}
		})
	}
}

// TestServeBurstCtxPinHygieneOnError is the pin-hygiene guarantee: a
// burst aborted by an emit error mid-run, with the page being borrowed
// pinned, must still return every pin — bufpool.PinnedCount goes back to
// zero.
func TestServeBurstCtxPinHygieneOnError(t *testing.T) {
	f, runs := buildBurstHeap(t, 2000, 8)
	boom := errors.New("cancelled mid-burst")
	lane := exec.NewLane(0)
	emitted := 0
	err := f.ServeBurstCtx(lane.Contexts(len(runs)), runs, func(int, *record.Record) error {
		emitted++
		if emitted == 700 { // inside the third run, pins from earlier runs live
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("ServeBurstCtx error = %v, want %v", err, boom)
	}
	if n := f.io.Cache().PinnedCount(); n != 0 {
		t.Fatalf("PinnedCount after aborted burst = %d, want 0", n)
	}

	// And an abort on the very first emit (no run completed).
	err = f.ServeBurstCtx(lane.Contexts(len(runs)), runs, func(int, *record.Record) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("ServeBurstCtx error = %v, want %v", err, boom)
	}
	if n := f.io.Cache().PinnedCount(); n != 0 {
		t.Fatalf("PinnedCount after first-emit abort = %d, want 0", n)
	}
}

// TestServeBurstCtxConcurrent hammers one cached file with concurrent
// bursts, some of which abort mid-flight — run with -race, this is the
// satellite's "burst serves that error or are cancelled mid-burst"
// regression net. After the storm every pin must be back.
func TestServeBurstCtxConcurrent(t *testing.T) {
	f, runs := buildBurstHeap(t, 3000, 8)
	boom := errors.New("abort")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lane := exec.NewLane(g)
			for iter := 0; iter < 20; iter++ {
				abortAt := -1
				if (g+iter)%3 == 0 {
					abortAt = 100 + 37*iter
				}
				emitted := 0
				err := f.ServeBurstCtx(lane.Contexts(len(runs)), runs, func(int, *record.Record) error {
					emitted++
					if emitted == abortAt {
						return boom
					}
					return nil
				})
				if err != nil && !errors.Is(err, boom) {
					t.Errorf("goroutine %d iter %d: %v", g, iter, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := f.io.Cache().PinnedCount(); n != 0 {
		t.Fatalf("PinnedCount after concurrent bursts = %d, want 0", n)
	}
}
