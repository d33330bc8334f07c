package router

import (
	"errors"
	"fmt"
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

// replicaNode is one live read replica: its state, server and feed.
type replicaNode struct {
	addr   string
	rep    *replica.Replica
	srv    *wire.ReplicaServer
	feed   *wire.ReplicaFeed
	killed bool
}

// repDeployment is a replicated deployment: per shard one durable
// primary (combined SP+TE on one address) plus read replicas, fronted by
// one router.
type repDeployment struct {
	plan      shard.Plan
	syss      []*core.DurableSystem
	primSrvs  []*wire.PrimaryServer
	primAddrs []string
	reps      [][]*replicaNode
	router    *Router
}

// newReplicaDeployment builds a replicated deployment over n records
// split across the given shard count, with replicasPer read replicas
// tailing each primary. cfg's failover knobs are honored; addresses are
// filled in.
func newReplicaDeployment(t *testing.T, n, shards, replicasPer int, cfg Config) *repDeployment {
	t.Helper()
	ds, err := workload.Generate(workload.UNF, n, 42)
	if err != nil {
		t.Fatalf("generating dataset: %v", err)
	}
	plan := shard.PlanFor(ds.Records, shards)
	parts := plan.Partition(ds.Records)
	d := &repDeployment{plan: plan}
	for i := 0; i < plan.Shards(); i++ {
		sys, err := core.OpenDurableSystem(t.TempDir(), parts[i], 32)
		if err != nil {
			t.Fatalf("opening shard %d: %v", i, err)
		}
		t.Cleanup(func() { sys.Close() })
		hub := replica.Attach(sys, 0)
		psrv, err := wire.ServePrimary("127.0.0.1:0", sys, hub, nil,
			wire.WithShardInfo(wire.ShardInfo{Index: i, Plan: plan}))
		if err != nil {
			t.Fatalf("serving shard %d primary: %v", i, err)
		}
		t.Cleanup(func() { psrv.Close() })
		d.syss = append(d.syss, sys)
		d.primSrvs = append(d.primSrvs, psrv)
		d.primAddrs = append(d.primAddrs, psrv.Addr())

		var nodes []*replicaNode
		for j := 0; j < replicasPer; j++ {
			node, err := startReplicaNode(d.primAddrs[i], "127.0.0.1:0")
			if err != nil {
				t.Fatalf("shard %d replica %d: %v", i, j, err)
			}
			t.Cleanup(func() {
				if !node.killed {
					node.feed.Close()
					node.srv.Close()
				}
			})
			nodes = append(nodes, node)
		}
		d.reps = append(d.reps, nodes)
	}
	cfg.SPs = d.primAddrs
	cfg.TEs = d.primAddrs
	cfg.Replicas = make([][]string, len(d.reps))
	for i, nodes := range d.reps {
		for _, node := range nodes {
			cfg.Replicas[i] = append(cfg.Replicas[i], node.addr)
		}
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatalf("router: %v", err)
	}
	t.Cleanup(func() { r.Close() })
	if err := r.Serve("127.0.0.1:0"); err != nil {
		t.Fatalf("router serve: %v", err)
	}
	d.router = r
	return d
}

// startReplicaNode bootstraps a replica from the primary, serves it on
// addr and starts its feed.
func startReplicaNode(primaryAddr, addr string) (*replicaNode, error) {
	rep, si, err := wire.BootstrapReplica(primaryAddr)
	if err != nil {
		return nil, err
	}
	srv, err := wire.ServeReplica(addr, rep, nil, wire.WithShardInfo(si))
	if err != nil {
		return nil, err
	}
	return &replicaNode{
		addr: srv.Addr(),
		rep:  rep,
		srv:  srv,
		feed: wire.StartReplicaFeed(rep, primaryAddr, nil),
	}, nil
}

// kill tears the node down like a SIGKILL: server and feed die, the
// replica state is discarded.
func (n *replicaNode) kill() {
	n.killed = true
	n.feed.Close()
	n.srv.Close()
}

// restart re-bootstraps from the primary and serves at the SAME address
// (a supervisor restarting the process).
func (n *replicaNode) restart(primaryAddr string) error {
	rep, si, err := wire.BootstrapReplica(primaryAddr)
	if err != nil {
		return err
	}
	var srv *wire.ReplicaServer
	for attempt := 0; ; attempt++ {
		srv, err = wire.ServeReplica(n.addr, rep, nil, wire.WithShardInfo(si))
		if err == nil {
			break
		}
		if attempt >= 50 {
			return fmt.Errorf("rebinding %s: %w", n.addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	n.rep, n.srv = rep, srv
	n.feed = wire.StartReplicaFeed(rep, primaryAddr, nil)
	n.killed = false
	return nil
}

// write commits count fresh records through the primaries' wire write
// path, routing each to its owning shard.
func (d *repDeployment) write(base, count int) error {
	perShard := make([][]record.Record, d.plan.Shards())
	for i := 0; i < count; i++ {
		key := record.Key(uint64(base+i) * 7919 % uint64(record.KeyDomain))
		s := d.plan.ShardFor(key)
		perShard[s] = append(perShard[s], record.Synthesize(record.ID(1<<40+base+i), key))
	}
	for s := range perShard {
		if len(perShard[s]) == 0 {
			continue
		}
		wc, err := wire.DialSP(d.primAddrs[s])
		if err != nil {
			return err
		}
		err = wc.InsertBatch(perShard[s])
		wc.Close()
		if err != nil {
			return fmt.Errorf("shard %d insert: %w", s, err)
		}
	}
	return nil
}

// waitCaughtUp blocks until every live replica's generation reaches its
// primary's committed sequence.
func (d *repDeployment) waitCaughtUp(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i, nodes := range d.reps {
		want := d.syss[i].Seq()
		for _, node := range nodes {
			if node.killed {
				continue
			}
			for node.rep.Seq() < want {
				if time.Now().After(deadline) {
					t.Fatalf("shard %d replica %s stuck at %d, want %d", i, node.addr, node.rep.Seq(), want)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// minPrimaryGen is the freshest generation a spanning verified answer
// can carry: the minimum committed sequence across shards.
func (d *repDeployment) minPrimaryGen() uint64 {
	min := d.syss[0].Seq()
	for _, sys := range d.syss[1:] {
		if s := sys.Seq(); s < min {
			min = s
		}
	}
	return min
}

// TestRoutedVerifiedWithReplicas: stamped verified queries flow through
// the router across a replicated deployment, verify under the unchanged
// single-system check, and keep flowing — with zero client-visible
// errors — after a whole shard's primary dies, served by its replicas.
func TestRoutedVerifiedWithReplicas(t *testing.T) {
	d := newReplicaDeployment(t, 6_000, 2, 2, Config{ProbeInterval: 20 * time.Millisecond})
	if err := d.write(0, 64); err != nil {
		t.Fatal(err)
	}
	d.waitCaughtUp(t)

	vc, err := wire.DialVerified(d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	qs := append(workload.Queries(6, workload.DefaultExtent, 91),
		record.Range{Lo: 0, Hi: record.KeyDomain})
	for _, q := range qs {
		_, gen, err := vc.Query(q)
		if err != nil {
			t.Fatalf("verified query %v: %v", q, err)
		}
		if want := d.minPrimaryGen(); gen < want {
			t.Fatalf("query %v stamped %d, primaries at %d", q, gen, want)
		}
	}

	// Kill shard 0's primary outright. Replicas already hold its last
	// generation; the router must fail over with no client-visible error.
	d.primSrvs[0].Close()
	for i, q := range qs {
		if _, _, err := vc.Query(q); err != nil {
			t.Fatalf("verified query %d after primary death: %v", i, err)
		}
	}
	ctrs := d.router.Counters()
	if ctrs.Failovers == 0 && ctrs.Evictions == 0 {
		t.Fatalf("primary died but no failover or eviction recorded: %+v", ctrs)
	}

	// The plain two-leg verifying path survives too: SP reads and TE
	// tokens both fail over to the replicas.
	pv, err := wire.DialVerifying(d.router.Addr(), d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer pv.Close()
	for _, q := range qs {
		if _, err := pv.Query(q); err != nil {
			t.Fatalf("plain verifying query %v after primary death: %v", q, err)
		}
	}
}

// TestRouterStaleReplicaRejected: a replica frozen at an old generation
// (its feed never ran) is excluded by the staleness bound — clients only
// ever see fresh answers while a fresh endpoint lives, and a loud error
// (never a silently stale answer) once none does.
func TestRouterStaleReplicaRejected(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 1_500, 13)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.OpenDurableSystem(t.TempDir(), ds.Records, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	hub := replica.Attach(sys, 0)
	plan := shard.PlanFor(ds.Records, 1)
	psrv, err := wire.ServePrimary("127.0.0.1:0", sys, hub, nil,
		wire.WithShardInfo(wire.ShardInfo{Index: 0, Plan: plan}))
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()

	// A replica WITHOUT a feed: frozen at the bootstrap generation.
	rep, si, err := wire.BootstrapReplica(psrv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rsrv, err := wire.ServeReplica("127.0.0.1:0", rep, nil, wire.WithShardInfo(si))
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()

	// Advance the primary well past the staleness bound.
	for i := 0; i < 4; i++ {
		if _, err := sys.InsertBatch([]record.Key{record.Key(100_000 * (i + 1))}); err != nil {
			t.Fatal(err)
		}
	}

	r, err := New(Config{
		SPs:           []string{psrv.Addr()},
		TEs:           []string{psrv.Addr()},
		Replicas:      [][]string{{rsrv.Addr()}},
		MaxLag:        2,
		ProbeInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	// Wait for the prober to observe the primary's generation — the bar
	// the frozen replica is measured against.
	vc, err := wire.DialVerified(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		g, err := vc.GenStamp(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if g >= sys.Seq() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("router never observed the primary's generation %d", sys.Seq())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Every routed answer must be fresh: round-robin would hit the stale
	// replica half the time, but the staleness bound keeps it out.
	q := record.Range{Lo: 0, Hi: record.KeyDomain}
	for i := 0; i < 20; i++ {
		_, gen, err := vc.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if gen != sys.Seq() {
			t.Fatalf("query %d served stale generation %d, primary at %d", i, gen, sys.Seq())
		}
	}

	// With the only fresh endpoint dead, the router must fail loudly
	// rather than quietly serve the frozen replica.
	psrv.Close()
	if _, _, err := vc.Query(q); err == nil {
		t.Fatal("router served a beyond-bound stale answer after the primary died")
	}
	if ctrs := r.Counters(); ctrs.StaleRejects == 0 {
		t.Fatalf("stale replica was never rejected: %+v", ctrs)
	}
}

// TestRouterReplayOldAnswerRejected: a malicious router replaying a
// cached verified answer from an older generation passes the XOR check
// (the old answer was correct for its generation) but fails the client's
// monotonic freshness floor — the defense the generation stamp exists
// for.
func TestRouterReplayOldAnswerRejected(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 1_200, 17)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.OpenDurableSystem(t.TempDir(), ds.Records, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	hub := replica.Attach(sys, 0)
	plan := shard.PlanFor(ds.Records, 1)
	psrv, err := wire.ServePrimary("127.0.0.1:0", sys, hub, nil,
		wire.WithShardInfo(wire.ShardInfo{Index: 0, Plan: plan}))
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	r, err := New(Config{SPs: []string{psrv.Addr()}, TEs: []string{psrv.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Serve("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	vc, err := wire.DialVerified(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	q := record.Range{Lo: 0, Hi: record.KeyDomain}

	// Capture the per-shard payloads of an honest answer at generation G1.
	var cached [][]byte
	r.setTamper(&tamper{replayVerified: func(raws [][]byte) [][]byte {
		if cached == nil {
			cached = make([][]byte, len(raws))
			for i := range raws {
				cached[i] = append([]byte(nil), raws[i]...)
			}
		}
		return raws
	}})
	_, g1, err := vc.Query(q)
	if err != nil {
		t.Fatalf("honest query: %v", err)
	}

	// Advance the dataset, let the client observe the new generation.
	if _, err := sys.InsertBatch([]record.Key{1_000, 2_000, 3_000}); err != nil {
		t.Fatal(err)
	}
	_, g2, err := vc.Query(q)
	if err != nil {
		t.Fatalf("post-write query: %v", err)
	}
	if g2 <= g1 {
		t.Fatalf("generation did not advance: %d -> %d", g1, g2)
	}

	// Turn the router malicious: replay the cached G1 answer.
	r.setTamper(&tamper{replayVerified: func([][]byte) [][]byte { return cached }})

	// The replay VERIFIES under the plain XOR check — it is a correct
	// answer, just an old one. This is exactly what the stamp is for.
	if _, gen, err := vc.Query(q); err != nil {
		t.Fatalf("replayed answer failed the XOR check (it should verify): %v", err)
	} else if gen != g1 {
		t.Fatalf("replayed answer stamped %d, want the old generation %d", gen, g1)
	}

	// A client enforcing its monotonic floor rejects it.
	if _, _, err := vc.QueryAtLeast(q, vc.Gen()); !errors.Is(err, wire.ErrStaleRead) {
		t.Fatalf("replayed answer passed the freshness floor: %v", err)
	}
}

// TestRouterChaosReplicaChurn is the in-process chaos harness: verified
// clients and a writer run concurrently while replicas are repeatedly
// SIGKILL-equivalently torn down and re-bootstrapped at the same
// address. The primary (also verified-capable) always survives, so the
// invariant is strict: ZERO failed verifications and ZERO client-visible
// errors.
func TestRouterChaosReplicaChurn(t *testing.T) {
	d := newReplicaDeployment(t, 8_000, 2, 2, Config{
		ProbeInterval: 20 * time.Millisecond,
		MaxLag:        1 << 20, // churn bounds lag via re-bootstrap, not rejection
		HedgeAfter:    50 * time.Millisecond,
	})
	if err := d.write(0, 32); err != nil {
		t.Fatal(err)
	}
	d.waitCaughtUp(t)

	stop := make(chan struct{})
	var bg sync.WaitGroup

	// Writer: a steady trickle of inserts straight to the primaries.
	var writerErr error
	bg.Add(1)
	go func() {
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := d.write(1_000+i*4, 4); err != nil {
				writerErr = err
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Verified readers through the router.
	const workers = 3
	workerErrs := make([]error, workers)
	var queries [workers]int
	for w := 0; w < workers; w++ {
		bg.Add(1)
		go func(w int) {
			defer bg.Done()
			vc, err := wire.DialVerified(d.router.Addr())
			if err != nil {
				workerErrs[w] = err
				return
			}
			defer vc.Close()
			qs := workload.Queries(40, workload.DefaultExtent, int64(500+w))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := vc.Query(qs[i%len(qs)]); err != nil {
					workerErrs[w] = fmt.Errorf("query %d: %w", i, err)
					return
				}
				queries[w]++
			}
		}(w)
	}

	// Chaos: kill one replica at a time (≥1 replica plus the primary per
	// shard always up), restart it at the same address mid-workload —
	// including while it is still catching up from its bootstrap.
	for round := 0; round < 6; round++ {
		node := d.reps[round%2][(round/2)%2]
		node.kill()
		time.Sleep(100 * time.Millisecond)
		if err := node.restart(d.primAddrs[round%2]); err != nil {
			close(stop)
			bg.Wait()
			t.Fatalf("chaos round %d restart: %v", round, err)
		}
		time.Sleep(60 * time.Millisecond)
	}
	close(stop)
	bg.Wait()

	if writerErr != nil {
		t.Fatalf("writer saw an error during chaos: %v", writerErr)
	}
	total := 0
	for w := 0; w < workers; w++ {
		if workerErrs[w] != nil {
			t.Fatalf("worker %d saw an error during chaos: %v", w, workerErrs[w])
		}
		total += queries[w]
	}
	if total == 0 {
		t.Fatal("no verified queries completed during chaos")
	}
	ctrs := d.router.Counters()
	if ctrs.Evictions == 0 {
		t.Fatalf("chaos ran but no connection was ever evicted: %+v", ctrs)
	}

	// Quiesce: every replica catches back up and the routed answer is
	// fresh and verified.
	d.waitCaughtUp(t)
	vc, err := wire.DialVerified(d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	_, gen, err := vc.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil {
		t.Fatalf("post-chaos verified query: %v", err)
	}
	if want := d.minPrimaryGen(); gen < want {
		t.Fatalf("post-chaos answer stamped %d, primaries at %d", gen, want)
	}
	t.Logf("chaos survived: %d verified queries, counters %+v", total, ctrs)
}
