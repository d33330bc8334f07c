// Command saebench regenerates the paper's evaluation figures (5-8) and
// the measurements this implementation adds beyond them.
//
// Every figure is one row of the figures table: its name, the flags it
// reads and its body. Setting a flag the chosen figure does not read is a
// usage error (exit 2), and so is an unknown figure; both are caught
// before any work starts. `saebench -h` prints the table.
//
//	saebench                           # quick scale, all paper figures
//	saebench -scale paper              # the paper's full 100K..1M grid (~GBs of RAM)
//	saebench -figure 6                 # a single figure
//	saebench -figure 5 -n 50000,200000 # custom cardinalities
//	saebench -figure all -csv          # machine-readable tables
//
// The paper figures (5, 6, 7, 8, rt for response time, updates, all)
// print tables. The others print their result as JSON and write the same
// JSON to -out, BENCH_<figure>.json by default:
//
//	saebench -figure shard -shards 1,4,16          # sharded throughput scaling
//	saebench -figure fastpath -out BENCH_fastpath.ci.json
//
// shard measures aggregate verified throughput as the shard count grows
// (one simulated disk per shard); fastpath the zero-copy serve and verify
// chain; burst the pipelined serve loop; write the group-commit pipeline;
// agg verified aggregation; replica the replica tier behind the router;
// reshard an online shard split under live traffic.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"sae/internal/experiments"
)

// opts holds every flag's value; a figure reads only the fields its row
// names, besides -figure, -seed and -quiet.
type opts struct {
	figure, scale, out           string
	ns, shards                   intList
	queries                      int
	seed                         int64
	csv, quiet                   bool
	fastIters, burstMs, aggIters int
}

// figure is one thing saebench measures. run returns either the result,
// which saebench prints as JSON and writes to -out, or, for the paper
// figures, nil and the function that prints their tables.
type figure struct {
	name  string
	flags string
	run   func(*opts) (result any, print func(), err error)
}

const paperFlags = "scale n queries csv"

var figures = []figure{
	{"5", paperFlags, sweep(experiments.BuildFig5)},
	{"6", paperFlags, sweep(experiments.BuildFig6)},
	{"7", paperFlags, sweep(experiments.BuildFig7)},
	{"8", paperFlags, sweep(experiments.BuildFig8)},
	{"rt", paperFlags, sweep(responseTime)},
	{"updates", paperFlags, runUpdates},
	{"all", paperFlags, sweep(experiments.BuildFig5, experiments.BuildFig6, experiments.BuildFig7, experiments.BuildFig8, responseTime)},
	{"shard", "shards queries out", runShard},
	{"fastpath", "fastiters out", runFastpath},
	{"burst", "burstms out", runBurst},
	{"write", "out", runWrite},
	{"agg", "aggiters queries out", runAgg},
	{"replica", "queries out", runReplica},
	{"reshard", "queries out", runReshard},
}

// intList is a comma-separated list of positive integers.
type intList []int

func (l *intList) String() string {
	s := make([]string, len(*l))
	for i, n := range *l {
		s[i] = strconv.Itoa(n)
	}
	return strings.Join(s, ",")
}

func (l *intList) Set(v string) error {
	*l = nil
	for _, part := range strings.Split(v, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			return fmt.Errorf("bad count %q", part)
		}
		*l = append(*l, n)
	}
	return nil
}

func newFlagSet(o *opts) *flag.FlagSet {
	help := "the figure to run, and the flags it reads besides -seed and -quiet:"
	for _, f := range figures {
		help += fmt.Sprintf("\n  %-9s %s", f.name, f.flags)
	}
	o.shards = intList{1, 2, 4, 8}
	fs := flag.NewFlagSet("saebench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&o.figure, "figure", "all", help)
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress progress output")
	fs.StringVar(&o.scale, "scale", "quick", "sweep scale: quick or paper")
	fs.Var(&o.ns, "n", "comma-separated `cardinalities` overriding the scale")
	fs.IntVar(&o.queries, "queries", 0, "queries per grid point or measurement (0 = the figure's default)")
	fs.BoolVar(&o.csv, "csv", false, "emit CSV instead of aligned tables")
	fs.Var(&o.shards, "shards", "comma-separated shard `counts`")
	fs.StringVar(&o.out, "out", "", "output path for the figure's JSON (default BENCH_<figure>.json)")
	fs.IntVar(&o.fastIters, "fastiters", 0, "iterations per fast-path variant (0 = default)")
	fs.IntVar(&o.burstMs, "burstms", 0, "measured milliseconds per burst point (0 = default)")
	fs.IntVar(&o.aggIters, "aggiters", 0, "query-set repetitions per aggregation variant (0 = default)")
	return fs
}

// parse reads the command line into the chosen figure and its options.
// Any error it returns is a usage error.
func parse(args []string) (*figure, *opts, error) {
	o := new(opts)
	fs := newFlagSet(o)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if fs.NArg() > 0 {
		return nil, nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	i := slices.IndexFunc(figures, func(f figure) bool { return f.name == o.figure })
	if i < 0 {
		return nil, nil, fmt.Errorf("unknown figure %q", o.figure)
	}
	f := &figures[i]
	reads := map[string]bool{"figure": true, "seed": true, "quiet": true}
	for _, name := range strings.Fields(f.flags) {
		reads[name] = true
	}
	var unread []string
	fs.Visit(func(fl *flag.Flag) {
		if !reads[fl.Name] {
			unread = append(unread, "-"+fl.Name)
		}
	})
	if len(unread) > 0 {
		return nil, nil, fmt.Errorf("-figure %s does not read %s", f.name, strings.Join(unread, " "))
	}
	if o.scale != "quick" && o.scale != "paper" {
		return nil, nil, fmt.Errorf("unknown scale %q (want quick or paper)", o.scale)
	}
	if o.out == "" {
		o.out = "BENCH_" + f.name + ".json"
	}
	return f, o, nil
}

func main() {
	f, o, err := parse(os.Args[1:])
	if err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "saebench: %v\n\n", err)
		}
		fmt.Fprintln(os.Stderr, "usage: saebench [-figure NAME] [flags]")
		fs := newFlagSet(new(opts))
		fs.SetOutput(os.Stderr)
		fs.PrintDefaults()
		os.Exit(2)
	}
	res, print, err := f.run(o)
	if err == nil {
		if res == nil {
			print()
		} else {
			err = printJSON(o, res)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "saebench: %v\n", err)
		os.Exit(1)
	}
}

// printJSON prints a figure's result as JSON and writes the same bytes to
// -out.
func printJSON(o *opts, res any) error {
	var buf bytes.Buffer
	if err := experiments.WriteJSON(&buf, res); err != nil {
		return err
	}
	os.Stdout.Write(buf.Bytes())
	if err := os.WriteFile(o.out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	if !o.quiet {
		fmt.Fprintf(os.Stderr, "saebench: wrote %s\n", o.out)
	}
	return nil
}

// progress is where a figure reports its steps: stderr, or nowhere under
// -quiet.
func (o *opts) progress() func(string) {
	if o.quiet {
		return nil
	}
	return func(s string) { fmt.Fprintln(os.Stderr, s) }
}

// paper is the sweep configuration of the paper figures.
func (o *opts) paper() experiments.Config {
	cfg := experiments.QuickScale()
	if o.scale == "paper" {
		cfg = experiments.PaperScale()
	}
	if o.ns != nil {
		cfg.Cardinalities = o.ns
	}
	if o.queries > 0 {
		cfg.NumQueries = o.queries
	}
	cfg.Seed, cfg.Progress = o.seed, o.progress()
	return cfg
}

func printTables(o *opts, tables ...*experiments.Table) {
	for i, t := range tables {
		if i > 0 {
			fmt.Println()
		}
		if o.csv {
			fmt.Printf("# %s\n%s", t.Title, t.CSV())
		} else {
			fmt.Print(t.Format())
		}
	}
}

// sweep runs the paper's grid once and renders a table with each of builds.
func sweep(builds ...func([]*experiments.Cell) *experiments.Table) func(*opts) (any, func(), error) {
	return func(o *opts) (any, func(), error) {
		cells, err := experiments.Sweep(o.paper())
		if err != nil {
			return nil, nil, err
		}
		tables := make([]*experiments.Table, len(builds))
		for i, build := range builds {
			tables[i] = build(cells)
		}
		return nil, func() { printTables(o, tables...) }, nil
	}
}

func responseTime(cells []*experiments.Cell) *experiments.Table {
	return experiments.BuildResponseTime(cells, experiments.DefaultNetwork)
}

func runUpdates(o *opts) (any, func(), error) {
	cells, err := experiments.RunUpdates(o.paper())
	if err != nil {
		return nil, nil, err
	}
	return nil, func() { printTables(o, experiments.BuildUpdates(cells)) }, nil
}

// runShard measures sharded throughput scaling under simulated per-shard
// disks.
func runShard(o *opts) (any, func(), error) {
	cfg := experiments.DefaultShardConfig()
	cfg.Seed, cfg.Progress, cfg.ShardCounts = o.seed, o.progress(), o.shards
	if o.queries > 0 {
		cfg.Queries = o.queries
	}
	res, err := experiments.RunShardScaling(cfg)
	return res, nil, err
}

// runFastpath measures the zero-copy serve/verify chain against the seed
// pipeline.
func runFastpath(o *opts) (any, func(), error) {
	cfg := experiments.DefaultFastpathConfig()
	cfg.Seed, cfg.Progress = o.seed, o.progress()
	if o.fastIters > 0 {
		cfg.Iters = o.fastIters
	}
	res, err := experiments.RunFastpath(cfg)
	return res, nil, err
}

// runBurst measures the serve loop under pipelined load and sweeps
// GOMAXPROCS, one lane per core.
func runBurst(o *opts) (any, func(), error) {
	cfg := experiments.DefaultBurstConfig()
	cfg.Seed, cfg.Progress = o.seed, o.progress()
	if o.burstMs > 0 {
		cfg.Duration = time.Duration(o.burstMs) * time.Millisecond
	}
	res, err := experiments.RunBurst(cfg)
	return res, nil, err
}

// runWrite measures the group-commit write pipeline: serial durable
// commits vs coalesced groups, the GOMAXPROCS sweep and the TOM
// sign-amortization pair.
func runWrite(o *opts) (any, func(), error) {
	cfg := experiments.DefaultWriteConfig()
	cfg.Seed, cfg.Progress = o.seed, o.progress()
	res, err := experiments.RunWrite(cfg)
	return res, nil, err
}

// runAgg measures the verified-aggregation fast path against
// scan-and-fold under both protocols.
func runAgg(o *opts) (any, func(), error) {
	cfg := experiments.DefaultAggConfig()
	cfg.Seed, cfg.Progress = o.seed, o.progress()
	if o.aggIters > 0 {
		cfg.Iters = o.aggIters
	}
	if o.queries > 0 {
		cfg.Queries = o.queries
	}
	res, err := experiments.RunAgg(cfg)
	return res, nil, err
}

// runReplica measures the replica tier's routed throughput against the
// primaries-only baseline.
func runReplica(o *opts) (any, func(), error) {
	cfg := experiments.DefaultReplicaConfig()
	cfg.Seed, cfg.Progress = o.seed, o.progress()
	if o.queries > 0 {
		cfg.Queries = o.queries
	}
	res, err := experiments.RunReplica(cfg)
	return res, nil, err
}

// runReshard splits a hot shard online behind the router under a live
// verified workload.
func runReshard(o *opts) (any, func(), error) {
	cfg := experiments.DefaultReshardConfig()
	cfg.Seed, cfg.Progress = o.seed, o.progress()
	if o.queries > 0 {
		cfg.Queries = o.queries
	}
	res, err := experiments.RunReshard(cfg)
	return res, nil, err
}
