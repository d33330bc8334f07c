// Command saenet runs one party of the SAE deployment as a process: a
// party server (sp, te, or a durable primary and its read replicas), the
// untrusted router tier in front of a sharded deployment, a verifying
// client session, or one of the harness roles that drive the failure
// experiments (chaos, reshard, crashwriter, crashverify). TOM, the
// paper's baseline, is measured in-process by saebench and has no role
// here.
//
// Every role is one row of the roles table: its name, the flags it reads
// and its body. Setting a flag the chosen role does not read is a usage
// error (exit 2), and so is leaving out one it cannot run without; both
// are caught before any port is bound or dataset generated. `saenet -h`
// prints the table.
//
//	saenet -role sp  -addr :7001 -n 100000         # SAE service provider
//	saenet -role te  -addr :7002 -n 100000         # trusted entity
//	saenet -role client -sp localhost:7001 -te localhost:7002 -queries 20
//
// A sharded deployment adds -shards/-shard-index to every server (each
// process draws the same deterministic keys, derives the same plan from
// them, and synthesizes and loads only its own partition) and gives the
// client one comma-separated address list per party, in shard order:
//
//	saenet -role sp -shards 2 -shard-index 0 -addr :7101 -n 100000
//	saenet -role sp -shards 2 -shard-index 1 -addr :7102 -n 100000
//	saenet -role te -shards 2 -shard-index 0 -addr :7201 -n 100000
//	saenet -role te -shards 2 -shard-index 1 -addr :7202 -n 100000
//	saenet -role client -sp localhost:7101,localhost:7102 \
//	       -te localhost:7201,localhost:7202 -queries 20
//
// Alternatively, run a router in front of the shards and point the
// client at its single address with -router instead of -sp/-te — the
// router scatters on the server side, the client verifies exactly as
// against one system:
//
//	saenet -role router -addr :7000 -sp localhost:7101,localhost:7102 \
//	       -te localhost:7201,localhost:7202
//	saenet -role client -router localhost:7000 -queries 20
//
// A replicated deployment runs one writable primary per shard (SP reads,
// TE tokens and the replication feed on one address) plus any number of
// read replicas bootstrapped from it, and hands the router each shard's
// replica list (comma within a shard, semicolon between shards):
//
//	saenet -role primary -addr :7301 -dir /tmp/shard0 -shards 2 -shard-index 0
//	saenet -role replica -addr :7311 -primary localhost:7301
//	saenet -role router  -addr :7000 -sp localhost:7301,localhost:7302 \
//	       -te localhost:7301,localhost:7302 \
//	       -replicas "localhost:7311,localhost:7312;localhost:7321" \
//	       -hedge-after 30ms
//	saenet -role chaos -router localhost:7000 -sp localhost:7301,localhost:7302
//
// The chaos role is the harness half of the failover story: it trickles
// writes into the primaries while concurrent verified readers hammer the
// router, and reports a zero-failure accounting line only if every
// answer verified — kill and restart replicas underneath it to exercise
// failover (scripts/deploy_smoke.sh does exactly that).
//
// Every server role prints "serving on ADDR" once it is listening; with
// -pprof, any role serves net/http/pprof and its expvar counters. Servers
// derive their partitions of one deterministic dataset from
// -n/-dist/-seed, so any group started with identical parameters is
// consistent; the client (or router) cross-checks every shard's attested
// plan before querying.
package main

import (
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sae/internal/agg"
	"sae/internal/core"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/replica"
	"sae/internal/reshard"
	"sae/internal/router"
	"sae/internal/shard"
	"sae/internal/wire"
	"sae/internal/workload"
)

// crashBatch is the crash writer's insert batch size.
const crashBatch = 16

// opts holds every flag's value; a role reads only the fields its row
// names.
type opts struct {
	role, pprof, addr, dist, tamper, dir, primary       string
	sp, te, routerAddr, replicas                        string
	n, shards, shardIndex, queries, workers, splitShard int
	seed                                                int64
	agg                                                 bool
	upstreamTimeout, hedgeAfter, duration               time.Duration
	maxLag, splitAt                                     uint64
}

// role is one way to run saenet: its name, the flags it reads besides
// -role and -pprof (a trailing * marks one it cannot run without), an
// optional check across them, and its body.
type role struct {
	name, flags string
	check       func(*opts) error
	run         func(*opts) error
}

var roles = []role{
	{name: "sp", flags: "addr n dist seed shards shard-index tamper", run: runServer},
	{name: "te", flags: "addr n dist seed shards shard-index", run: runServer},
	{name: "primary", flags: "addr dir* n dist seed shards shard-index", run: runPrimary},
	{name: "replica", flags: "addr primary*", run: runReplica},
	{name: "router", flags: "addr sp* te* replicas upstream-timeout hedge-after max-lag", run: runRouter},
	{name: "client", flags: "router sp te queries seed agg", check: checkClient, run: runClient},
	{name: "chaos", flags: "router* sp* duration workers seed", run: runChaos},
	{name: "reshard", flags: "sp* router dir* split-shard split-at", run: runReshard},
	{name: "crashwriter", flags: "dir* n dist seed", run: runCrashWriter},
	{name: "crashverify", flags: "dir* n dist seed", run: runCrashVerify},
}

func newFlagSet(o *opts) *flag.FlagSet {
	help := "the role to run, and the flags it reads besides -pprof (* marks one it needs):"
	for _, r := range roles {
		help += fmt.Sprintf("\n  %-12s %s", r.name, r.flags)
	}
	fs := flag.NewFlagSet("saenet", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&o.role, "role", "", help)
	fs.StringVar(&o.pprof, "pprof", "", "serve net/http/pprof + expvar counters on this address (e.g. localhost:6060)")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:0", "listen address")
	fs.IntVar(&o.n, "n", 100_000, "dataset cardinality")
	fs.StringVar(&o.dist, "dist", "UNF", "key distribution: UNF or SKW")
	fs.Int64Var(&o.seed, "seed", 1, "dataset and workload seed (must match across all servers)")
	fs.IntVar(&o.shards, "shards", 1, "total shards in the deployment")
	fs.IntVar(&o.shardIndex, "shard-index", 0, "this server's shard index")
	fs.StringVar(&o.tamper, "tamper", "", "turn malicious: 'drop' omits the first result record (attack experiments)")
	fs.StringVar(&o.dir, "dir", "", "durable system directory (reshard: two target directories, comma-separated)")
	fs.StringVar(&o.primary, "primary", "", "primary address to bootstrap from and tail")
	fs.StringVar(&o.sp, "sp", "", "SP or primary address(es), comma-separated in shard order")
	fs.StringVar(&o.te, "te", "", "TE or primary address(es), comma-separated in shard order")
	fs.StringVar(&o.routerAddr, "router", "", "router address(es); a client dials one as both SP and TE")
	fs.StringVar(&o.replicas, "replicas", "", "per-shard replica lists, comma within a shard, semicolon between shards")
	fs.DurationVar(&o.upstreamTimeout, "upstream-timeout", router.DefaultUpstreamTimeout, "per-shard sub-request bound")
	fs.DurationVar(&o.hedgeAfter, "hedge-after", 0, "race a sibling endpoint after this delay; 0 disables hedging")
	fs.Uint64Var(&o.maxLag, "max-lag", 0, "staleness bound in commit groups; 0 uses the router default")
	fs.IntVar(&o.queries, "queries", 10, "queries to run")
	fs.BoolVar(&o.agg, "agg", false, "also run a verified COUNT/SUM/MIN/MAX per range and cross-check it against the scanned records")
	fs.DurationVar(&o.duration, "duration", 5*time.Second, "how long to run the churn workload")
	fs.IntVar(&o.workers, "workers", 3, "concurrent verified readers")
	fs.IntVar(&o.splitShard, "split-shard", -1, "shard index to split online; -1 splits the last shard")
	fs.Uint64Var(&o.splitAt, "split-at", 0, "key to split at; 0 uses the midpoint of the populated range")
	return fs
}

// parse reads the command line into the chosen role and its options. Any
// error it returns is a usage error.
func parse(args []string) (*role, *opts, error) {
	o := new(opts)
	fs := newFlagSet(o)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if fs.NArg() > 0 {
		return nil, nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	i := slices.IndexFunc(roles, func(r role) bool { return r.name == o.role })
	if i < 0 {
		return nil, nil, fmt.Errorf("unknown role %q", o.role)
	}
	r := &roles[i]
	reads := map[string]bool{"role": true, "pprof": true}
	for _, name := range strings.Fields(r.flags) {
		name, need := strings.CutSuffix(name, "*")
		reads[name] = true
		if need && fs.Lookup(name).Value.String() == "" {
			return nil, nil, fmt.Errorf("-role %s needs -%s", r.name, name)
		}
	}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if !reads[f.Name] {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		return nil, nil, fmt.Errorf("-role %s does not read %s", r.name, strings.Join(unread, " "))
	}
	if o.n < 0 || uint64(o.n) > workload.MaxN {
		return nil, nil, fmt.Errorf("-n %d outside 0..%d", o.n, uint64(workload.MaxN))
	}
	if o.shards < 1 || o.shardIndex < 0 || o.shardIndex >= o.shards {
		return nil, nil, fmt.Errorf("-shard-index %d outside 0..%d", o.shardIndex, o.shards-1)
	}
	if o.tamper != "" && o.tamper != "drop" {
		return nil, nil, fmt.Errorf("-tamper supports only 'drop'")
	}
	if r.check != nil {
		if err := r.check(o); err != nil {
			return nil, nil, err
		}
	}
	return r, o, nil
}

func main() {
	r, o, err := parse(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "saenet: %v\n\n", err)
		}
		fmt.Fprintln(os.Stderr, "usage: saenet -role ROLE [flags]")
		fs := newFlagSet(new(opts))
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		os.Exit(2)
	}
	if o.pprof != "" {
		startDebugServer(o.pprof)
	}
	if err := r.run(o); err != nil {
		fmt.Fprintf(os.Stderr, "saenet: %v\n", err)
		os.Exit(1)
	}
}

// partition draws the keys of all -n records of the deterministic
// dataset every server derives from -n, -dist and -seed, plans them into
// -shards parts, and returns the packed (key, id) pairs of this
// process's part (-shard-index) only; workload.Reader synthesizes their
// records in place as a load reads them. The plan and the part are
// those of shard.PlanFor and Plan.Partition over the whole
// workload.Generate dataset.
func partition(o *opts) (shard.Plan, []uint64, error) {
	pairs, err := workload.Keys(workload.Distribution(o.dist), o.n, o.seed)
	if err != nil {
		return shard.Plan{}, nil, err
	}
	key := func(i int) record.Key {
		k, _ := workload.Unpack(pairs[i])
		return k
	}
	plan := shard.PlanForKeys(len(pairs), key, o.shards)
	if o.shardIndex >= plan.Shards() {
		return shard.Plan{}, nil, fmt.Errorf("-shard-index %d outside the plan's %d shards: %d records have too few distinct keys for %d",
			o.shardIndex, plan.Shards(), o.n, o.shards)
	}
	span := plan.Span(o.shardIndex)
	lo := sort.Search(len(pairs), func(i int) bool { return key(i) >= span.Lo })
	hi := lo + sort.Search(len(pairs)-lo, func(i int) bool { return key(lo+i) > span.Hi })
	return plan, pairs[lo:hi], nil
}

// serveUntilInterrupt reports that role is serving on addr, waits for
// ctrl-c, then runs the closers in order.
func serveUntilInterrupt(role, addr string, closers ...func() error) error {
	fmt.Fprintf(os.Stderr, "saenet %s: serving on %s (ctrl-c to stop)\n", role, addr)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	errs := make([]error, len(closers))
	for i, c := range closers {
		errs[i] = c()
	}
	return errors.Join(errs...)
}

// runServer serves one stand-alone party (sp or te) over its part of the
// dataset; the party's tree holds that part's whole index as objects.
func runServer(o *opts) error {
	fmt.Fprintf(os.Stderr, "saenet %s: drawing %d %s keys (seed %d)...\n", o.role, o.n, o.dist, o.seed)
	plan, part, err := partition(o)
	if err != nil {
		return err
	}
	if o.shards > 1 {
		fmt.Fprintf(os.Stderr, "saenet %s: shard %d/%d owns span %v (%d records)\n",
			o.role, o.shardIndex, o.shards, plan.Span(o.shardIndex), len(part))
	}
	info := wire.WithShardInfo(wire.ShardInfo{Index: o.shardIndex, Plan: plan})
	var srv interface {
		Addr() string
		Close() error
	}
	switch o.role {
	case "sp":
		sp := core.NewServiceProvider(pagestore.NewMem())
		if err := sp.LoadFrom(len(part), workload.Reader(part)); err != nil {
			return err
		}
		if o.tamper == "drop" {
			fmt.Fprintln(os.Stderr, "saenet sp: MALICIOUS — dropping the first record of every result")
			sp.SetTamper(core.DropTamper(0))
		}
		srv, err = wire.ServeSP(o.addr, sp, wire.Logf("sp"), info)
	case "te":
		te := core.NewTrustedEntity(pagestore.NewMem())
		if err := te.LoadFrom(len(part), workload.Reader(part)); err != nil {
			return err
		}
		srv, err = wire.ServeTE(o.addr, te, wire.Logf("te"), info)
	}
	if err != nil {
		return err
	}
	return serveUntilInterrupt(o.role, srv.Addr(), srv.Close)
}

// runPrimary serves one writable shard on one address: SP reads, TE
// tokens, owner writes through the group-commit pipeline, generation
// stamps, verified queries and the replication feed replicas bootstrap
// and tail from. The dataset is the usual deterministic partition, but
// it lives in a durable system under -dir so writes survive and
// replicas have a WAL stream to follow.
func runPrimary(o *opts) error {
	fmt.Fprintf(os.Stderr, "saenet primary: drawing %d %s keys (seed %d)...\n", o.n, o.dist, o.seed)
	start := time.Now()
	plan, part, err := partition(o)
	if err != nil {
		return err
	}
	partitioned := time.Now()
	sys, err := core.OpenDurableFrom(o.dir, len(part), workload.Reader(part), 0)
	if err != nil {
		return err
	}
	opened := time.Now()
	hub := replica.Attach(sys, 0)
	expvar.Publish("sae_group_commit", expvar.Func(func() any { return sys.Stats() }))
	expvar.Publish("sae_primary_seq", expvar.Func(func() any { return sys.Seq() }))
	srv, err := wire.ServePrimary(o.addr, sys, hub, wire.Logf("primary"),
		wire.WithShardInfo(wire.ShardInfo{Index: o.shardIndex, Plan: plan}))
	if err != nil {
		sys.Close()
		return err
	}
	// The bulk load's transient peak (the drawn keys, the load's index
	// entries and digest tuples) is well above what the primary keeps
	// live, and how high it reaches depends on where the load's GCs
	// happen to fall. Return it to the OS now rather than leaving it
	// resident while the background scavenger releases it slowly; off
	// the startup path, since the primary is already serving.
	go debug.FreeOSMemory()
	fmt.Fprintf(os.Stderr, "saenet primary: shard %d/%d owns span %v (synthesized %d of %d records, seq %d; partition %d ms, open %d ms)\n",
		o.shardIndex, o.shards, plan.Span(o.shardIndex), len(part), o.n, sys.Seq(),
		partitioned.Sub(start).Milliseconds(), opened.Sub(partitioned).Milliseconds())
	return serveUntilInterrupt("primary", srv.Addr(), srv.Close, sys.Close)
}

// runReplica bootstraps a read replica from its primary's sequence-
// stamped snapshot, serves reads on addr, and keeps tailing the
// primary's commit groups in the background. Answers are bit-identical
// to the primary's at the same generation stamp; the client's XOR
// verification needs no new trust in this process.
func runReplica(o *opts) error {
	fmt.Fprintf(os.Stderr, "saenet replica: bootstrapping from %s...\n", o.primary)
	rep, info, err := wire.BootstrapReplica(o.primary)
	if err != nil {
		return err
	}
	srv, err := wire.ServeReplica(o.addr, rep, wire.Logf("replica"), wire.WithShardInfo(info))
	if err != nil {
		return err
	}
	feed := wire.StartReplicaFeed(rep, o.primary, wire.Logf("replica"))
	expvar.Publish("sae_replica_seq", expvar.Func(func() any { return rep.Seq() }))
	expvar.Publish("sae_replica_resets", expvar.Func(func() any { return feed.Resets() }))
	fmt.Fprintf(os.Stderr, "saenet replica: shard %d of %s at seq %d, tailing %s\n",
		info.Index, info.Plan, rep.Seq(), o.primary)
	return serveUntilInterrupt("replica", srv.Addr(), func() error { feed.Close(); return nil }, srv.Close)
}

func splitAddrs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// splitReplicaLists parses the router's -replicas flag: semicolons
// separate shards (in shard order, one segment per shard), commas
// separate a shard's replicas. A shard with no replicas is an empty
// segment.
func splitReplicaLists(s string) [][]string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	segs := strings.Split(s, ";")
	out := make([][]string, len(segs))
	for i, seg := range segs {
		out[i] = splitAddrs(seg)
	}
	return out
}

// runRouter starts the router tier: one client-facing address, the
// scatter-gather against the shard servers on the server side. With
// -replicas, each shard's read replicas join its endpoint set behind
// health probing, failover and (with -hedge-after) hedged requests.
func runRouter(o *opts) error {
	cfg := router.Config{
		SPs:             splitAddrs(o.sp),
		TEs:             splitAddrs(o.te),
		Replicas:        splitReplicaLists(o.replicas),
		UpstreamTimeout: o.upstreamTimeout,
		HedgeAfter:      o.hedgeAfter,
		MaxLag:          o.maxLag,
		Logf:            wire.Logf("router"),
	}
	r, err := router.New(cfg)
	if err != nil {
		return err
	}
	// Failover observability: scalar counters for alerting plus the full
	// per-upstream health table, all on /debug/vars when -pprof is set.
	expvar.Publish("sae_router_failovers", expvar.Func(func() any { return r.Counters().Failovers }))
	expvar.Publish("sae_router_hedges_won", expvar.Func(func() any { return r.Counters().HedgesWon }))
	expvar.Publish("sae_router_hedges_lost", expvar.Func(func() any { return r.Counters().HedgesLost }))
	expvar.Publish("sae_router_counters", expvar.Func(func() any { return r.Counters() }))
	expvar.Publish("sae_router_upstreams", expvar.Func(func() any { return r.Health() }))
	if err := r.Serve(o.addr); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "saenet router: %d shards under %s\n", r.Shards(), r.Plan())
	if o.replicas != "" {
		fmt.Fprintf(os.Stderr, "saenet router: replicas %s, hedge-after %v\n", o.replicas, o.hedgeAfter)
	}
	return serveUntilInterrupt("router", r.Addr(), r.Close)
}

// checkClient: the client dials either one router or every shard's SP
// and TE, never both.
func checkClient(o *opts) error {
	if (o.routerAddr != "") == (o.sp != "" || o.te != "") {
		return errors.New("-role client needs -router, or -sp and -te, but not both")
	}
	return nil
}

// runClient runs -queries verified range queries (with -agg, a verified
// aggregate beside each, cross-checked against folding the scanned
// records) straight to the shards' SP/TE pairs — a stand-alone pair is
// "shard 0 of 1" — or through a router's one address, which the client
// treats as one shard spanning the whole key space.
func runClient(o *opts) error {
	var c *wire.ShardedVerifyingClient
	if o.routerAddr == "" {
		var err error
		if c, err = wire.DialShardedVerifying(splitAddrs(o.sp), splitAddrs(o.te)); err != nil {
			return err
		}
	} else {
		vc, err := wire.DialVerifying(o.routerAddr, o.routerAddr)
		if err != nil {
			return err
		}
		c = &wire.ShardedVerifyingClient{Shards: []*wire.VerifyingClient{vc}}
	}
	defer c.Close()
	if c.Plan.Shards() > 1 {
		fmt.Fprintf(os.Stderr, "saenet client: verified %s attested by all TEs\n", c.Plan)
	}
	qs := workload.Queries(o.queries, workload.DefaultExtent, o.seed+1000)
	start := time.Now()
	total := 0
	for _, q := range qs {
		recs, err := c.Query(q)
		if err != nil {
			return fmt.Errorf("query %v: %w", q, err)
		}
		total += len(recs)
		if !o.agg {
			fmt.Printf("%-24v %6d records  verified\n", q, len(recs))
			continue
		}
		// The two independently authenticated answers must agree bit for
		// bit.
		a, err := c.Aggregate(q)
		if err != nil {
			return fmt.Errorf("aggregate %v: %w", q, err)
		}
		var fold agg.Agg
		for i := range recs {
			if q.Contains(recs[i].Key) {
				fold = fold.Add(recs[i].Key)
			}
		}
		if a != fold.Normalize() {
			return fmt.Errorf("aggregate %v = %v, scan fold = %v", q, a, fold.Normalize())
		}
		fmt.Printf("%-24v %6d records  verified  %v (matches scan)\n", q, len(recs), a)
	}
	fmt.Printf("\n%d queries, %d records, %v elapsed\n", len(qs), total, time.Since(start).Round(time.Millisecond))
	// A verified aggregate is a token on the TE connection, so the split
	// by connection says nothing; the total is the protocol's answer
	// bytes.
	spBytes, teBytes := c.BytesReceived()
	fmt.Printf("wire bytes: %d received\n", spBytes+teBytes)
	return nil
}

// runChaos is the client half of the chaos harness: a writer trickles
// inserts into the shard primaries (high-ID records routed by the
// attested plan) while -workers concurrent verified readers hammer the
// router, each enforcing the XOR verification and its own monotonic
// freshness floor. It prints a single accounting line and exits 0 only
// if every read verified and every write was acked — kill and restart
// replicas under the router while this runs and the line must still say
// zero failures.
func runChaos(o *opts) error {
	prims, err := wire.DialShardedVerifying(splitAddrs(o.sp), splitAddrs(o.sp))
	if err != nil {
		return fmt.Errorf("chaos: primaries: %w", err)
	}
	defer prims.Close()
	plan := prims.Plan

	stop := make(chan struct{})
	var (
		wg             sync.WaitGroup
		reads, written atomic.Uint64
		errs           = make([]error, 1+o.workers) // the writer's, then each reader's
	)

	// Writer: small batches every couple of milliseconds, IDs far above
	// the synthetic dataset's, keys spread across the domain so every
	// shard keeps advancing its generation during the churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		base := 0
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			perShard := make(map[int][]record.Record)
			for i := 0; i < 4; i++ {
				key := record.Key(uint64(base+i) * 7919 % record.KeyDomain)
				s := plan.ShardFor(key)
				perShard[s] = append(perShard[s], record.Synthesize(record.ID(1<<40+base+i), key))
			}
			for s, recs := range perShard {
				if err := prims.Shards[s].SP.InsertBatch(recs); err != nil {
					if strings.Contains(err.Error(), "retired") {
						// An online reshard migrated this shard away
						// mid-churn. The fence is the intended signal to
						// re-route; for the smoke workload the writer just
						// stops cleanly — the verified readers carry the
						// zero-failure invariant across the cutover.
						fmt.Fprintf(os.Stderr, "saenet chaos: shard %d retired after reshard; stopping writes at %d records\n",
							s, written.Load())
						return
					}
					errs[0] = fmt.Errorf("writer failed: shard %d insert: %w", s, err)
					return
				}
				written.Add(uint64(len(recs)))
			}
			base += 4
		}
	}()

	// Verified readers through the router's single address.
	for w := 0; w < o.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			vc, err := wire.DialVerified(o.routerAddr)
			if err != nil {
				errs[1+w] = fmt.Errorf("reader %d failed: %w", w, err)
				return
			}
			defer vc.Close()
			qs := workload.Queries(64, workload.DefaultExtent, o.seed+int64(1000*w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := vc.Query(qs[i%len(qs)]); err != nil {
					errs[1+w] = fmt.Errorf("reader %d failed: query %d: %w", w, i, err)
					return
				}
				reads.Add(1)
			}
		}(w)
	}

	time.Sleep(o.duration)
	close(stop)
	wg.Wait()

	if reads.Load() == 0 {
		errs = append(errs, errors.New("no verified reads completed"))
	}
	failed, verdict := 0, "PASS"
	for _, err := range errs {
		if err != nil {
			failed, verdict = failed+1, "FAIL"
			fmt.Fprintf(os.Stderr, "saenet chaos: %v\n", err)
		}
	}
	fmt.Printf("chaos: %s — %d verified reads, %d records written, %d failures\n",
		verdict, reads.Load(), written.Load(), failed)
	if failed > 0 {
		return fmt.Errorf("chaos: %d failures", failed)
	}
	return nil
}

// runReshard splits one shard of a live deployment online: it learns
// the serving plan from the first primary, bootstraps and catches up
// the two successor shards from the source's replication feed, then
// freezes, drains, cuts the routers over and retires the source. The
// process stays resident afterwards — it HOSTS the new shards — until
// interrupted.
func runReshard(o *opts) error {
	prims := splitAddrs(o.sp)
	ctrl, err := wire.DialShardedVerifying(prims, prims)
	if err != nil {
		return fmt.Errorf("reshard: primaries: %w", err)
	}
	ctrl.Close()
	plan := ctrl.Plan
	splitShard := o.splitShard
	if splitShard < 0 {
		splitShard = plan.Shards() - 1
	}
	span := plan.Span(splitShard)
	at := record.Key(o.splitAt)
	if at == 0 {
		hi := span.Hi
		if hi > record.KeyDomain {
			hi = record.KeyDomain // synthetic datasets populate [0, KeyDomain)
		}
		at = (span.Lo + hi) / 2
	}
	next, err := plan.SplitShard(splitShard, []record.Key{at})
	if err != nil {
		return fmt.Errorf("reshard: deriving successor plan: %w", err)
	}
	fmt.Fprintf(os.Stderr, "saenet reshard: splitting shard %d of %v at key %d...\n", splitShard, plan, at)
	co, res, err := reshard.Run(reshard.Config{
		Current:    plan,
		Next:       next,
		FirstShard: splitShard,
		Replaced:   1,
		Primaries:  prims,
		TargetDirs: splitAddrs(o.dir),
		Routers:    splitAddrs(o.routerAddr),
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "saenet "+format+"\n", args...)
		},
	})
	if err != nil {
		return fmt.Errorf("reshard: %w", err)
	}
	targets := strings.Join(res.TargetAddrs, ",")
	fmt.Printf("reshard: cutover complete — epoch %d, pause %v, %d groups streamed, %d records migrated, targets %s\n",
		res.Plan.Epoch(), res.CutoverPause, res.GroupsStreamed, res.RecordsMigrated, targets)
	return serveUntilInterrupt("reshard", targets, co.Close)
}

// runCrashWriter opens (or creates) a durable system in -dir and streams
// acked update groups into it until the process is killed. Every intent
// and ack is fsynced to dir/acked.log first, so a later crashverify can
// audit exactly what this process was told was durable.
func runCrashWriter(o *opts) error {
	_, part, err := partition(o)
	if err != nil {
		return err
	}
	sys, err := core.OpenDurableFrom(o.dir, len(part), workload.Reader(part), 0)
	if err != nil {
		return err
	}
	expvar.Publish("sae_group_commit", expvar.Func(func() any { return sys.Stats() }))
	fmt.Fprintf(os.Stderr, "saenet crashwriter: writing groups into %s (kill -9 me)\n", o.dir)
	return core.RunCrashWriter(sys, filepath.Join(o.dir, "acked.log"), crashBatch, 0, o.seed)
}

// runCrashVerify reopens a (possibly killed mid-group) durable system
// from the same base partition the writer loaded and audits it against
// the writer's ack log: every acked update must be present, no unacked
// update partially visible, and the full range must verify against the
// trusted entity's token.
func runCrashVerify(o *opts) error {
	_, part, err := partition(o)
	if err != nil {
		return err
	}
	sys, err := core.OpenDurableFrom(o.dir, len(part), workload.Reader(part), 0)
	if err != nil {
		return fmt.Errorf("reopening %s: %w", o.dir, err)
	}
	defer sys.Close()
	acked, err := core.ReadAckLog(filepath.Join(o.dir, "acked.log"))
	if err != nil {
		return err
	}
	if _, err := core.VerifyRecovered(sys, workload.Synthesize(part), acked); err != nil {
		return fmt.Errorf("crash audit: %w", err)
	}
	fmt.Printf("crashverify: recovered %s — %d WAL groups replayed, %d acked inserts live, full range verified\n",
		o.dir, sys.ReplayedGroups(), len(acked.Inserted))
	return nil
}

// startDebugServer exposes the process on addr for profiling and
// observability: net/http/pprof at /debug/pprof and expvar at
// /debug/vars, including the lane/burst serve counters every wire server
// in the process feeds. Roles publish their own counters beside these
// (group commit, replica sequence, router health).
func startDebugServer(addr string) {
	expvar.Publish("sae_serve_lanes", expvar.Func(func() any { return runtime.GOMAXPROCS(0) }))
	expvar.Publish("sae_burst", expvar.Func(func() any { return wire.ReadBurstCounters() }))
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "saenet: pprof server: %v\n", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "saenet: pprof on http://%s/debug/pprof, counters on http://%s/debug/vars\n", addr, addr)
}
