package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/replica"
	"sae/internal/router"
	"sae/internal/shard"
	"sae/internal/wire"
)

// shards is the topology's width: one router in front of this many
// primaries. Replicas, resharding and TOM stay out (see README.md).
const shards = 2

// serverGOMAXPROCS is what every server process runs with. Three servers
// and a generator already oversubscribe the sandbox's two cores; with the
// default (one P per core in every process, eight Ps in all) the Go
// schedulers' idle spinning competed with the serving work, and the same
// code differed by a quarter in CPU per op from run to run. One P per
// server halved that spread. The deployment still uses both cores: it is
// four processes.
const serverGOMAXPROCS = 1

// counters are the server-side tallies the benchmark reads from outside
// the serving path: /debug/vars of each child process, or the same
// values straight from the objects when the deployment is in-process.
// Burst and Commit are summed over the serving processes.
type counters struct {
	Burst  wire.BurstCounters
	Commit core.CommitStats
	Router router.Counters
}

func (c *counters) addCommit(s core.CommitStats) {
	c.Commit.Groups += s.Groups
	c.Commit.Ops += s.Ops
	c.Commit.Syncs += s.Syncs
}

// procUsage is one process's CPU time and resident memory, now and at
// its peak.
type procUsage struct {
	cpu   time.Duration // utime + stime
	rssKB int64         // VmRSS
	hwmKB int64         // VmHWM
}

// deployment is a serving router → 2-primary topology.
type deployment interface {
	routerAddr() string
	primaryAddrs() []string
	// procs reads the router's usage and the primaries' summed usage from
	// /proc; counters reads the serving processes' tallies.
	procs() (router, primaries procUsage, err error)
	counters() (counters, error)
	// alive is cancelled, with the reason as its cause, the moment a
	// server stops on its own; everything timed against the deployment
	// runs under it, so a dead server fails the run at once instead of
	// producing zeros.
	alive() context.Context
	// close stops every server and removes everything the deployment
	// put on disk.
	close()
}

// live holds every deployment that is up, so that a signal or a fatal
// error can stop the servers and remove their directories from wherever
// it strikes.
var live struct {
	sync.Mutex
	set map[deployment]struct{}
}

func track(d deployment) {
	live.Lock()
	if live.set == nil {
		live.set = make(map[deployment]struct{})
	}
	live.set[d] = struct{}{}
	live.Unlock()
}

func untrack(d deployment) {
	live.Lock()
	delete(live.set, d)
	live.Unlock()
}

func closeAllDeployments() {
	live.Lock()
	ds := make([]deployment, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.close()
	}
}

// ---- child-process deployment ----

// clkTck is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; Linux
// fixes it at 100 for every architecture Go runs on.
const clkTck = 100

func readProcUsage(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name (field 2) may hold spaces; fields resume after its
	// closing parenthesis. utime and stime are fields 14 and 15.
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return u, fmt.Errorf("/proc/%d/stat: %d fields after the command name", pid, len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("/proc/%d/stat: unparsable cpu times %q %q", pid, f[11], f[12])
	}
	u.cpu = time.Duration(utime+stime) * time.Second / clkTck

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		for field, dst := range map[string]*int64{"VmHWM:": &u.hwmKB, "VmRSS:": &u.rssKB} {
			v, ok := strings.CutPrefix(line, field)
			if !ok {
				continue
			}
			*dst, err = strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return u, fmt.Errorf("/proc/%d/status: unparsable %s %q", pid, field, v)
			}
		}
	}
	return u, nil
}

func (a procUsage) add(b procUsage) procUsage {
	return procUsage{cpu: a.cpu + b.cpu, rssKB: a.rssKB + b.rssKB, hwmKB: a.hwmKB + b.hwmKB}
}

// logTailLines is how much of a dead child's log the harness prints.
const logTailLines = 20

// child is one saenet process.
type child struct {
	name  string
	cmd   *exec.Cmd
	pprof string

	mu      sync.Mutex
	tail    []string      // last logTailLines lines of stdout+stderr
	addr    string        // parsed from the "serving on" line
	serving chan struct{} // closed once addr is known
	exited  chan struct{} // closed once the process has been reaped
}

func (c *child) logTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, "\n")
}

// reservePort asks the kernel for a free loopback port and releases it,
// so a child can be told where to put its debug server.
func reservePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// procDeployment runs the topology as child processes of the harness.
type procDeployment struct {
	dir      string
	children []*child        // primaries in shard order, then the router
	died     context.Context // see deployment.alive
	setDied  context.CancelCauseFunc
	closing  sync.Once
	stopped  chan struct{} // closed when close begins
}

// startChild launches saenet with args and starts following its output.
func (d *procDeployment) startChild(saenet, name string, args ...string) (*child, error) {
	pprof, err := reservePort()
	if err != nil {
		return nil, err
	}
	args = append(args, "-addr", "127.0.0.1:0", "-pprof", pprof)
	c := &child{name: name, pprof: pprof, serving: make(chan struct{}), exited: make(chan struct{})}
	c.cmd = exec.Command(saenet, args...)
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverGOMAXPROCS))
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	c.cmd.Stdout, c.cmd.Stderr = pw, pw
	// Own process group, and SIGKILL if the harness itself is killed, so
	// no server outlives the benchmark.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	pw.Close()
	d.children = append(d.children, c)

	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			if c.tail = append(c.tail, line); len(c.tail) > logTailLines {
				c.tail = c.tail[1:]
			}
			if _, after, ok := strings.Cut(line, "serving on "); ok && c.addr == "" {
				c.addr, _, _ = strings.Cut(after, " ")
				close(c.serving)
			}
			c.mu.Unlock()
		}
	}()
	go func() {
		err := c.cmd.Wait()
		<-logDone
		close(c.exited)
		select {
		case <-d.stopped:
		default:
			d.setDied(fmt.Errorf("%s (pid %d) exited on its own: %v; last log lines:\n%s",
				name, c.cmd.Process.Pid, err, c.logTail()))
		}
	}()
	return c, nil
}

// awaitServing blocks until the child has printed its address.
func (d *procDeployment) awaitServing(c *child) error {
	select {
	case <-c.serving:
		return nil
	case <-d.died.Done():
		return context.Cause(d.died)
	case <-time.After(60 * time.Second):
		return fmt.Errorf("%s never reported its address; last log lines:\n%s", c.name, c.logTail())
	}
}

// launchProcs starts two primaries (in parallel; they bulk-load their
// partitions from the same deterministic dataset) and a router in front
// of them. On error everything already started is torn down.
func launchProcs(saenet, workDir string, n int, datasetSeed int64) (*procDeployment, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "deploy-")
	if err != nil {
		return nil, err
	}
	d := &procDeployment{dir: dir, stopped: make(chan struct{})}
	d.died, d.setDied = context.WithCancelCause(context.Background())
	track(d)
	fail := func(err error) (*procDeployment, error) {
		d.close()
		return nil, err
	}
	for i := 0; i < shards; i++ {
		_, err := d.startChild(saenet, fmt.Sprintf("primary%d", i),
			"-role", "primary", "-dir", filepath.Join(dir, fmt.Sprintf("shard%d", i)),
			"-shards", strconv.Itoa(shards), "-shard-index", strconv.Itoa(i),
			"-n", strconv.Itoa(n), "-seed", strconv.FormatInt(datasetSeed, 10))
		if err != nil {
			return fail(err)
		}
	}
	for _, c := range d.children {
		if err := d.awaitServing(c); err != nil {
			return fail(err)
		}
	}
	prims := strings.Join(d.primaryAddrs(), ",")
	r, err := d.startChild(saenet, "router", "-role", "router", "-sp", prims, "-te", prims)
	if err != nil {
		return fail(err)
	}
	if err := d.awaitServing(r); err != nil {
		return fail(err)
	}
	return d, nil
}

func (d *procDeployment) routerAddr() string { return d.children[shards].addr }

func (d *procDeployment) alive() context.Context { return d.died }

func (d *procDeployment) primaryAddrs() []string {
	out := make([]string, 0, shards)
	for _, c := range d.children[:min(shards, len(d.children))] {
		out = append(out, c.addr)
	}
	return out
}

// expvars is the slice of a child's /debug/vars the benchmark reads.
type expvars struct {
	Burst  wire.BurstCounters `json:"sae_burst"`
	Commit core.CommitStats   `json:"sae_group_commit"`
	Router router.Counters    `json:"sae_router_counters"`
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

func scrape(addr string) (expvars, error) {
	var v expvars
	resp, err := scrapeClient.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return v, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return v, fmt.Errorf("scraping %s: %s", addr, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return v, fmt.Errorf("scraping %s: %w", addr, err)
	}
	return v, nil
}

func (d *procDeployment) procs() (router, primaries procUsage, err error) {
	if err := context.Cause(d.died); err != nil {
		return router, primaries, err
	}
	for i, c := range d.children {
		pu, err := readProcUsage(c.cmd.Process.Pid)
		if err != nil {
			return router, primaries, err
		}
		if i == shards {
			router = pu
		} else {
			primaries = primaries.add(pu)
		}
	}
	return router, primaries, nil
}

func (d *procDeployment) counters() (counters, error) {
	var out counters
	if err := context.Cause(d.died); err != nil {
		return out, err
	}
	for i, c := range d.children {
		v, err := scrape(c.pprof)
		if err != nil {
			return out, err
		}
		if i == shards {
			out.Router = v.Router
		} else {
			out.addCommit(v.Commit)
		}
		out.Burst.Jobs += v.Burst.Jobs
		out.Burst.GroupedFrames += v.Burst.GroupedFrames
		out.Burst.SoloFrames += v.Burst.SoloFrames
		out.Burst.Fallbacks += v.Burst.Fallbacks
	}
	return out, nil
}

// close interrupts every child, kills whatever has not exited two
// seconds later, reaps them all, and removes the deployment's directory
// (WAL and checkpoint directories included). It is safe to call twice.
func (d *procDeployment) close() {
	d.closing.Do(func() {
		close(d.stopped)
		for _, c := range d.children {
			c.cmd.Process.Signal(os.Interrupt) // error means it is already gone
		}
		for _, c := range d.children {
			select {
			case <-c.exited:
			case <-time.After(2 * time.Second):
				syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) // the whole group
				<-c.exited
			}
		}
		os.RemoveAll(d.dir)
		untrack(d)
	})
}

// ---- in-process deployment ----

// localDeployment serves the same topology inside the harness's own
// process. The traced run uses it because it needs the serving objects
// themselves to replay a request one layer at a time; the smoke test uses
// it to stay fast.
type localDeployment struct {
	dir       string
	plan      shard.Plan
	systems   []*core.DurableSystem
	primaries []*wire.PrimaryServer
	router    *router.Router
	closing   sync.Once
}

// launchLocal builds one durable primary per partition and a router in
// front, as experiments.RunReplica and the saenet roles do.
func launchLocal(workDir string, plan shard.Plan, parts [][]record.Record) (*localDeployment, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "local-")
	if err != nil {
		return nil, err
	}
	d := &localDeployment{dir: dir, plan: plan}
	track(d)
	fail := func(err error) (*localDeployment, error) {
		d.close()
		return nil, err
	}
	for i := range parts {
		sys, err := core.OpenDurableSystem(filepath.Join(dir, fmt.Sprintf("shard%d", i)), parts[i], 0)
		if err != nil {
			return fail(err)
		}
		d.systems = append(d.systems, sys)
		srv, err := wire.ServePrimary("127.0.0.1:0", sys, replica.Attach(sys, 0), nil,
			wire.WithShardInfo(wire.ShardInfo{Index: i, Plan: plan}))
		if err != nil {
			return fail(err)
		}
		d.primaries = append(d.primaries, srv)
	}
	addrs := d.primaryAddrs()
	if d.router, err = router.New(router.Config{SPs: addrs, TEs: addrs}); err != nil {
		return fail(err)
	}
	if err := d.router.Serve("127.0.0.1:0"); err != nil {
		return fail(err)
	}
	return d, nil
}

func (d *localDeployment) routerAddr() string { return d.router.Addr() }

func (d *localDeployment) alive() context.Context { return context.Background() }

func (d *localDeployment) primaryAddrs() []string {
	out := make([]string, len(d.primaries))
	for i, p := range d.primaries {
		out[i] = p.Addr()
	}
	return out
}

// procs attributes the whole process to the primaries: inside one
// process the split does not exist.
func (d *localDeployment) procs() (router, primaries procUsage, err error) {
	primaries, err = readProcUsage(os.Getpid())
	return router, primaries, err
}

func (d *localDeployment) counters() (counters, error) {
	out := counters{Burst: wire.ReadBurstCounters(), Router: d.router.Counters()}
	for _, sys := range d.systems {
		out.addCommit(sys.Stats())
	}
	return out, nil
}

func (d *localDeployment) close() {
	d.closing.Do(func() {
		if d.router != nil {
			d.router.Close()
		}
		for _, p := range d.primaries {
			p.Close()
		}
		for _, sys := range d.systems {
			sys.Close()
		}
		os.RemoveAll(d.dir)
		untrack(d)
	})
}
