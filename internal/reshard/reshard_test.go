package reshard

import (
	"strings"
	"sync"
	"testing"
	"time"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/replica"
	"sae/internal/shard"
	"sae/internal/wire"
	"sae/internal/workload"
)

// cluster is a live pre-reshard deployment: one durable primary per
// shard.
type cluster struct {
	plan  shard.Plan
	syss  []*core.DurableSystem
	srvs  []*wire.PrimaryServer
	addrs []string
}

// newCluster generates n records, splits them across shards and serves
// each part from a durable primary.
func newCluster(t *testing.T, n, shards int) *cluster {
	t.Helper()
	ds, err := workload.Generate(workload.UNF, n, 42)
	if err != nil {
		t.Fatalf("generating dataset: %v", err)
	}
	c := &cluster{plan: shard.PlanFor(ds.Records, shards)}
	parts := c.plan.Partition(ds.Records)
	for i := 0; i < shards; i++ {
		sys, err := core.OpenDurableSystem(t.TempDir(), parts[i], 16)
		if err != nil {
			t.Fatalf("opening shard %d: %v", i, err)
		}
		t.Cleanup(func() { sys.Close() })
		hub := replica.Attach(sys, 0)
		srv, err := wire.ServePrimary("127.0.0.1:0", sys, hub, nil,
			wire.WithShardInfo(wire.ShardInfo{Index: i, Plan: c.plan}))
		if err != nil {
			t.Fatalf("serving shard %d: %v", i, err)
		}
		t.Cleanup(func() { srv.Close() })
		c.syss = append(c.syss, sys)
		c.srvs = append(c.srvs, srv)
		c.addrs = append(c.addrs, srv.Addr())
	}
	return c
}

// countIn asks addr (directly, verified) how many records live in span.
func countIn(t *testing.T, addr string, span record.Range) int {
	t.Helper()
	vc, err := wire.DialVerified(addr)
	if err != nil {
		t.Fatalf("dialing %s: %v", addr, err)
	}
	defer vc.Close()
	recs, _, err := vc.Query(span)
	if err != nil {
		t.Fatalf("verified query %v on %s: %v", span, addr, err)
	}
	for _, r := range recs {
		if r.Key < span.Lo || r.Key > span.Hi {
			t.Fatalf("record key %d escapes span %v", r.Key, span)
		}
	}
	return len(recs)
}

// TestRunValidation: malformed configs are rejected before any network
// traffic.
func TestRunValidation(t *testing.T) {
	base := shard.PlanFor([]record.Record{record.Synthesize(1, 10), record.Synthesize(2, record.KeyDomain-10)}, 2)
	split, err := base.SplitShard(0, []record.Key{base.Span(0).Hi / 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"primaries count", Config{Current: base, Next: split, FirstShard: 0, Replaced: 1,
			Primaries: []string{"x"}, TargetDirs: []string{"a", "b"}}, "primaries"},
		{"epoch not successor", Config{Current: base, Next: base, FirstShard: 0, Replaced: 1,
			Primaries: []string{"x", "y"}, TargetDirs: []string{"a", "b"}}, "epoch"},
		{"target dirs count", Config{Current: base, Next: split, FirstShard: 0, Replaced: 1,
			Primaries: []string{"x", "y"}, TargetDirs: []string{"a"}}, "target dirs"},
		{"moved survivor", Config{Current: base, Next: split, FirstShard: 1, Replaced: 1,
			Primaries: []string{"x", "y"}, TargetDirs: []string{"a", "b"}}, "uninvolved"},
		{"run out of range", Config{Current: base, Next: split, FirstShard: 1, Replaced: 2,
			Primaries: []string{"x", "y"}, TargetDirs: []string{"a", "b"}}, "outside"},
	}
	for _, tc := range cases {
		_, _, err := Run(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestLiveSplit: split a hot shard in two while a writer hammers it.
// Every record — bulk snapshot, catch-up stream and freeze-window
// stragglers alike — must land on exactly one target, the survivors must
// adopt the successor plan, and the sources must be fenced.
func TestLiveSplit(t *testing.T) {
	c := newCluster(t, 4_000, 2)
	// Split at the midpoint of the populated key range (the raw span runs
	// to the top of the key space, far above any data).
	span1 := c.plan.Span(1)
	at := (span1.Lo + record.KeyDomain) / 2
	next, err := c.plan.SplitShard(1, []record.Key{at})
	if err != nil {
		t.Fatal(err)
	}

	// Writer: single-record commits into the splitting shard until the
	// retirement fence cuts it off. acked counts writes the source
	// durably owned and therefore must surface on a target.
	var (
		wg     sync.WaitGroup
		acked  int
		wrErr  error
		stop   = make(chan struct{})
		closed sync.Once
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		wc, err := wire.DialSP(c.addrs[1])
		if err != nil {
			wrErr = err
			return
		}
		defer wc.Close()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := span1.Lo + record.Key(uint64(i)*6151%uint64(record.KeyDomain-span1.Lo))
			rec := record.Synthesize(record.ID(1<<41+i), key)
			if err := wc.InsertBatch([]record.Record{rec}); err != nil {
				if strings.Contains(err.Error(), "retired") {
					return // the expected end: the shard was migrated away
				}
				wrErr = err
				return
			}
			acked++
		}
	}()

	dirs := []string{t.TempDir(), t.TempDir()}
	co, res, err := Run(Config{
		Current:    c.plan,
		Next:       next,
		FirstShard: 1,
		Replaced:   1,
		Primaries:  c.addrs,
		TargetDirs: dirs,
		FreezeTTL:  2 * time.Second,
		Logf:       t.Logf,
	})
	if err != nil {
		closed.Do(func() { close(stop) })
		wg.Wait()
		t.Fatalf("split: %v", err)
	}
	defer co.Close()
	closed.Do(func() { close(stop) })
	wg.Wait()
	if wrErr != nil {
		t.Fatalf("writer: %v", wrErr)
	}
	t.Logf("split: %d acked writes, %d groups streamed, %d migrated, pause %v",
		acked, res.GroupsStreamed, res.RecordsMigrated, res.CutoverPause)

	// Byte-completeness: the targets hold exactly what the source owned.
	want := c.syss[1].SP.Count()
	got := countIn(t, res.TargetAddrs[0], next.Span(1)) + countIn(t, res.TargetAddrs[1], next.Span(2))
	if got != want {
		t.Fatalf("targets hold %d records, source owned %d", got, want)
	}
	if res.CutoverPause <= 0 {
		t.Fatalf("cutover pause not measured: %v", res.CutoverPause)
	}

	// The survivor attests the successor plan at epoch v+1, same index.
	sp, err := wire.DialSP(c.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	si, err := sp.ShardMap()
	sp.Close()
	if err != nil {
		t.Fatal(err)
	}
	if si.Index != 0 || !si.Plan.Equal(next) {
		t.Fatalf("survivor attests shard %d of %v, want shard 0 of %v", si.Index, si.Plan, next)
	}

	// The source is fenced: verified reads and writes both refuse.
	vc, err := wire.DialVerified(c.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	if _, _, err := vc.Query(span1); err == nil || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("retired source still serves verified reads: %v", err)
	}

	// Targets attest the successor plan and stamp its epoch.
	tvc, err := wire.DialVerified(res.TargetAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer tvc.Close()
	if _, _, err := tvc.Query(next.Span(1)); err != nil {
		t.Fatalf("target verified query: %v", err)
	}
	if tvc.Epoch() != next.Epoch() {
		t.Fatalf("target stamped epoch %d, want %d", tvc.Epoch(), next.Epoch())
	}

	// The targets' directories reopen on their own: no one keeps the
	// migrated base to hand back, so it must have been checkpointed.
	tvc.Close()
	co.Close()
	reopened := 0
	for _, dir := range dirs {
		sys, err := core.OpenDurableSystem(dir, nil, 0)
		if err != nil {
			t.Fatalf("reopening target directory: %v", err)
		}
		reopened += sys.SP.Count()
		sys.Close()
	}
	if reopened != want {
		t.Fatalf("reopened targets hold %d records, source owned %d", reopened, want)
	}
}

// TestLiveMerge: merge two shards into one; the target holds the union
// and the surviving shard's index shifts down under the successor plan.
func TestLiveMerge(t *testing.T) {
	c := newCluster(t, 3_000, 3)
	next, err := c.plan.MergeShards(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	co, res, err := Run(Config{
		Current:    c.plan,
		Next:       next,
		FirstShard: 0,
		Replaced:   2,
		Primaries:  c.addrs,
		TargetDirs: []string{t.TempDir()},
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	defer co.Close()

	want := c.syss[0].SP.Count() + c.syss[1].SP.Count()
	if got := countIn(t, res.TargetAddrs[0], next.Span(0)); got != want {
		t.Fatalf("merged target holds %d records, sources owned %d", got, want)
	}
	if res.RecordsMigrated != want {
		t.Fatalf("RecordsMigrated = %d, want %d", res.RecordsMigrated, want)
	}

	// The survivor (old shard 2) now attests index 1 of the 2-shard plan.
	sp, err := wire.DialSP(c.addrs[2])
	if err != nil {
		t.Fatal(err)
	}
	si, err := sp.ShardMap()
	sp.Close()
	if err != nil {
		t.Fatal(err)
	}
	if si.Index != 1 || !si.Plan.Equal(next) {
		t.Fatalf("survivor attests shard %d of %v, want shard 1 of %v", si.Index, si.Plan, next)
	}

	// Both sources are fenced.
	for i := 0; i < 2; i++ {
		wc, err := wire.DialSP(c.addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		err = wc.InsertBatch([]record.Record{record.Synthesize(1<<42, c.plan.Span(i).Lo)})
		wc.Close()
		if err == nil || !strings.Contains(err.Error(), "retired") {
			t.Fatalf("retired source %d still accepts writes: %v", i, err)
		}
	}
}
