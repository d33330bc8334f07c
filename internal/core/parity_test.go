package core

import (
	"sync"
	"testing"

	"sae/internal/costmodel"
	"sae/internal/record"
	"sae/internal/workload"
)

// perQueryCost is the concurrency-sensitive part of a measured query: the
// node-access counts and their priced IO. (CPU wall time legitimately
// varies run to run and is excluded.)
type perQueryCost struct {
	spIndexAcc, spIndexIO int64
	spFetchAcc, spFetchIO int64
	teAcc, teIO           int64
	resultLen             int
}

func costOf(spc QueryCost, tec costmodel.Breakdown, n int) perQueryCost {
	return perQueryCost{
		spIndexAcc: int64(spc.Index.Accesses),
		spIndexIO:  int64(spc.Index.IO),
		spFetchAcc: int64(spc.Fetch.Accesses),
		spFetchIO:  int64(spc.Fetch.IO),
		teAcc:      int64(tec.Accesses),
		teIO:       int64(tec.IO),
		resultLen:  n,
	}
}

// TestConcurrentCostParity is the acceptance test for request-scoped
// accounting: per-query costs measured while 8 clients hammer the system
// concurrently must be bit-identical to the same queries measured one at a
// time. Before the exec.Context refactor the per-query numbers were
// store.Stats() deltas, which absorb every other in-flight query's
// accesses — under this workload they were reliably corrupted.
func TestConcurrentCostParity(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 20_000, 77)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sys, err := NewSystem(ds.Records)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	queries := workload.Queries(64, workload.DefaultExtent, 78)

	measure := func(q record.Range) (perQueryCost, error) {
		recs, spc, err := sys.SP.Query(q)
		if err != nil {
			return perQueryCost{}, err
		}
		_, tec, err := sys.TE.GenerateVT(q)
		if err != nil {
			return perQueryCost{}, err
		}
		return costOf(spc, tec, len(recs)), nil
	}

	// Serial reference pass.
	serial := make([]perQueryCost, len(queries))
	for i, q := range queries {
		c, err := measure(q)
		if err != nil {
			t.Fatalf("serial query %d: %v", i, err)
		}
		serial[i] = c
	}

	// Concurrent pass: 8 workers split the same query list.
	const workers = 8
	concurrent := make([]perQueryCost, len(queries))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				c, err := measure(queries[i])
				if err != nil {
					errs[w] = err
					return
				}
				concurrent[i] = c
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("concurrent query: %v", err)
		}
	}

	for i := range queries {
		if serial[i] != concurrent[i] {
			t.Fatalf("query %d (%v): concurrent cost %+v != serial cost %+v",
				i, queries[i], concurrent[i], serial[i])
		}
	}
}

// TestConcurrentCostParityUnderUpdates checks the weaker property that
// holds while an updater runs: every concurrently measured query still
// accounts only its own accesses — the result cardinality must exactly
// explain the fetch phase (ceil(n/8) heap pages for a clustered file), and
// the index phase must stay within the tree's height plus the leaves the
// result can span. A corrupted (global-delta) measurement violates these
// bounds immediately because it absorbs the updater's writes.
func TestConcurrentCostParityUnderUpdates(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 10_000, 79)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sys, err := NewSystem(ds.Records)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	queries := workload.Queries(16, workload.DefaultExtent, 80)
	height := int64(sys.SP.IndexHeight())

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				q := queries[(w*5+i)%len(queries)]
				recs, spc, err := sys.SP.Query(q)
				if err != nil {
					errCh <- err
					return
				}
				n := int64(len(recs))
				wantFetch := (n + 7) / 8 // ceil(n / RecordsPerPage)
				// Appended updates can add up to one partially-filled page
				// per leaf boundary; allow fetch slack of the tail pages
				// the updater appends (they are not clustered).
				if fetch := int64(spc.Fetch.Accesses); fetch < wantFetch || fetch > wantFetch+n {
					errCh <- errImplausible{"fetch", fetch, wantFetch}
					return
				}
				// Index phase: root-to-leaf walk plus the leaf chain the
				// result spans (408 entries per leaf), with slack for
				// splits racing the walk.
				maxLeaves := n/64 + 4
				if idx := int64(spc.Index.Accesses); idx < height || idx > height+maxLeaves {
					errCh <- errImplausible{"index", idx, height}
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 200; i++ {
			if _, err := sys.Insert(record.Key(i * 43_777 % record.KeyDomain)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("mixed workload: %v", err)
	}
	if err := sys.TE.Validate(); err != nil {
		t.Fatalf("TE invariants after mixed workload: %v", err)
	}
}

type errImplausible struct {
	phase string
	got   int64
	want  int64
}

func (e errImplausible) Error() string {
	return "per-query " + e.phase + " accesses implausible under concurrency (absorbed another request's accesses?)"
}
