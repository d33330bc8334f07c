package reshard

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sae/internal/record"
	"sae/internal/router"
	"sae/internal/shard"
	"sae/internal/wire"
	"sae/internal/workload"
)

// TestSplitUnderRouterChurn is the resharding chaos harness: verified
// readers stream through the router for the whole life of an online
// split — before, during the bulk copy, across the freeze and the
// cutover, and after — while a writer hammers the very shard being
// split. The invariant is strict: ZERO reader-visible errors and zero
// failed verifications. The writer is allowed exactly one visible
// artifact, the retirement fence, after which it must re-route to the
// successor topology and keep writing.
func TestSplitUnderRouterChurn(t *testing.T) {
	c := newCluster(t, 8_000, 2)
	r, err := router.New(router.Config{
		SPs:           c.addrs,
		TEs:           c.addrs,
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	// Split at the midpoint of the populated key range (the raw span runs
	// to the top of the key space, far above any data).
	span1 := c.plan.Span(1)
	at := (span1.Lo + record.KeyDomain) / 2
	next, err := c.plan.SplitShard(1, []record.Key{at})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup

	// Verified readers through the router: random spans plus the full
	// domain, zero tolerance for errors.
	const readers = 3
	readerErrs := make([]error, readers)
	var reads [readers]int
	for w := 0; w < readers; w++ {
		bg.Add(1)
		go func(w int) {
			defer bg.Done()
			vc, err := wire.DialVerified(r.Addr())
			if err != nil {
				readerErrs[w] = err
				return
			}
			defer vc.Close()
			qs := append(workload.Queries(40, workload.DefaultExtent, int64(700+w)),
				record.Range{Lo: 0, Hi: record.KeyDomain})
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := vc.Query(qs[i%len(qs)]); err != nil {
					readerErrs[w] = fmt.Errorf("read %d: %w", i, err)
					return
				}
				reads[w]++
			}
		}(w)
	}

	// Writer into the splitting shard. Pre-cutover it writes to the
	// source primary; when the retirement fence trips it waits for the
	// successor topology and re-routes each key by the new plan.
	var (
		newTopo   atomic.Pointer[Result]
		writerErr error
		rerouted  atomic.Bool
		acked     int
	)
	bg.Add(1)
	go func() {
		defer bg.Done()
		wc, err := wire.DialSP(c.addrs[1])
		if err != nil {
			writerErr = err
			return
		}
		defer func() { wc.Close() }()
		targets := make(map[int]*wire.SPClient)
		defer func() {
			for _, tc := range targets {
				tc.Close()
			}
		}()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := span1.Lo + record.Key(uint64(i)*6151%uint64(record.KeyDomain-span1.Lo))
			rec := record.Synthesize(record.ID(1<<41+i), key)
			if !rerouted.Load() {
				err := wc.InsertBatch([]record.Record{rec})
				if err == nil {
					acked++
					continue
				}
				if !strings.Contains(err.Error(), "retired") {
					writerErr = err
					return
				}
				// The fence: wait for the successor topology, then fall
				// through and re-submit the same record to it.
				for newTopo.Load() == nil {
					select {
					case <-stop:
						return
					case <-time.After(time.Millisecond):
					}
				}
				rerouted.Store(true)
			}
			res := newTopo.Load()
			idx := res.Plan.ShardFor(key)
			tc, ok := targets[idx]
			if !ok {
				tc, err = wire.DialSP(res.TargetAddrs[idx-1])
				if err != nil {
					writerErr = err
					return
				}
				targets[idx] = tc
			}
			if err := tc.InsertBatch([]record.Record{rec}); err != nil {
				writerErr = err
				return
			}
			acked++
		}
	}()

	// Let the workload warm up, then split the hot shard live.
	time.Sleep(50 * time.Millisecond)
	co, res, err := Run(Config{
		Current:    c.plan,
		Next:       next,
		FirstShard: 1,
		Replaced:   1,
		Primaries:  c.addrs,
		TargetDirs: []string{t.TempDir(), t.TempDir()},
		Routers:    []string{r.Addr()},
		Logf:       t.Logf,
	})
	if err != nil {
		close(stop)
		bg.Wait()
		t.Fatalf("split under churn: %v", err)
	}
	defer co.Close()
	newTopo.Store(res)

	// Keep the workload running on the successor topology for a while.
	time.Sleep(200 * time.Millisecond)
	close(stop)
	bg.Wait()

	for w, err := range readerErrs {
		if err != nil {
			t.Errorf("reader %d failed: %v", w, err)
		}
	}
	if writerErr != nil {
		t.Errorf("writer failed: %v", writerErr)
	}
	if t.Failed() {
		t.FailNow()
	}
	total := 0
	for _, n := range reads {
		total += n
	}
	t.Logf("churn: %d verified reads, %d acked writes (rerouted=%v), pause %v",
		total, acked, rerouted.Load(), res.CutoverPause)
	if total == 0 {
		t.Fatal("no verified reads completed")
	}
	if !rerouted.Load() {
		t.Error("writer never hit the retirement fence (split finished before any write?)")
	}

	// The router serves the successor plan and counted exactly one swap.
	if !r.Plan().Equal(next) {
		t.Fatalf("router serves %v, want %v", r.Plan(), next)
	}
	if ctrs := r.Counters(); ctrs.Cutovers != 1 {
		t.Fatalf("router counted %d cutovers, want 1", ctrs.Cutovers)
	}

	// Post-cutover readers observe the successor epoch on a spanning
	// query, and the full-domain count through the router matches what
	// the primaries durably own.
	vc, err := wire.DialVerified(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	recs, _, err := vc.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil {
		t.Fatalf("post-cutover spanning query: %v", err)
	}
	if vc.Epoch() != next.Epoch() {
		t.Fatalf("post-cutover answer stamped epoch %d, want %d", vc.Epoch(), next.Epoch())
	}
	want := c.syss[0].SP.Count() + countOwned(t, res, next)
	if len(recs) != want {
		t.Fatalf("spanning query returned %d records, primaries own %d", len(recs), want)
	}
}

// countOwned sums the records the successor targets serve for their
// spans (asked directly, verified).
func countOwned(t *testing.T, res *Result, next shard.Plan) int {
	t.Helper()
	total := 0
	for i, addr := range res.TargetAddrs {
		total += countIn(t, addr, next.Span(1+i))
	}
	return total
}
