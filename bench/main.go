// Command bench is the repository's benchmark: open-loop verified-query
// latency on a multi-process router → 2-primary deployment, plus a traced
// run that breaks the same requests down layer by layer. README.md in
// this directory describes the topology, the workloads and every metric;
// ../BENCHMARK.json is the contract the driver runs it under.
//
// Run it through run.sh, which builds cmd/saenet and this program:
//
//	bash bench/run.sh --workload range_scan --seed 1 --seconds 24 --trace 0
//	bash bench/run.sh -aa 2 -out bench/results/seed.json
//	bash bench/run.sh -curve
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// The deployment every run serves: the paper's UNF relation of 500-byte
// records under a fixed dataset seed. Only the workload seed varies.
const (
	datasetN    = 100_000
	datasetSeed = 1
)

// setupsPerRun is how many times a run sets the deployment up — four
// times before the load and four times after it. setup_s is the third
// fastest, so neither one slow fork nor a neighbour's burst at either end
// of the run decides it.
const setupsPerRun = 8

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run: range_scan, range_short, agg_wide or write_mixed")
		seed         = flag.Int64("seed", 1, "workload seed: queries, keys and arrival times derive from it")
		seconds      = flag.Float64("seconds", 26, "how long one run measures (warm + closed + open)")
		trace        = flag.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs the traced replay and reports the per-layer metrics")
		saenet       = flag.String("saenet", "", "path of the saenet binary to deploy (run.sh builds and passes it)")
		dir          = flag.String("dir", ".bench_build", "scratch directory for deployments and default outputs")
		out          = flag.String("out", "", "report file; the traced run also writes <out>.trace.jsonl (default: under -dir)")
		aa           = flag.Int("aa", 0, "A/A mode: run the whole suite this many times on the same code and compare the sets")
		curve        = flag.Bool("curve", false, "curve mode: throughput-vs-latency table of every read workload")
	)
	flag.Parse()

	// The generator never gets more processors than the issue's load shape
	// allows, whatever the machine has.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	// SIGINT, SIGTERM, or SIGPIPE (whoever read our output went away):
	// stop every server and remove every directory first, then fail.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGPIPE)
	go func() {
		s := <-sig
		closeAllDeployments()
		fmt.Fprintf(os.Stderr, "bench: %v: servers stopped, directories removed\n", s)
		os.Exit(130)
	}()

	if *saenet == "" {
		fmt.Fprintln(os.Stderr, "bench: -saenet is required; run through bench/run.sh, which builds saenet and passes it")
		os.Exit(2)
	}
	base := runConfig{
		measure:     time.Duration(*seconds * float64(time.Second)),
		n:           datasetN,
		datasetSeed: datasetSeed,
		saenet:      *saenet,
		workDir:     filepath.Join(*dir, "tmp"),
		setups:      setupsPerRun,
		seed:        *seed,
	}
	var err error
	switch {
	case *aa > 0:
		err = runAA(base, *aa, outPath(*out, *dir, "aa.json"))
	case *curve:
		err = runCurve(base, outPath(*out, *dir, "curve.json"))
	default:
		err = runOne(base, *workloadName, *trace != 0, outPath(*out, *dir, *workloadName+".json"))
	}
	if err != nil {
		closeAllDeployments()
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

func outPath(out, dir, name string) string {
	if out != "" {
		return out
	}
	return filepath.Join(dir, "out", name)
}

// errIncorrect marks a run that completed but saw failed operations.
var errIncorrect = fmt.Errorf("operations failed; the result is not a valid measurement")

// runOne is the contract's single run: one workload, one seed, one
// result line.
func runOne(base runConfig, name string, traced bool, out string) error {
	spec, err := findWorkload(name)
	if err != nil {
		return err
	}
	cfg := base
	cfg.spec = spec
	res, spans, err := measure(&cfg, traced)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "workload %s: attempted %d, failed %d\n", name, res.Attempted, res.Failed)
	printMetrics(os.Stderr, res.Metrics)
	if err := writeReport(out, res); err != nil {
		return err
	}
	if traced {
		if err := writeJSONL(out+".trace.jsonl", spans); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// measure runs one workload and returns its result: the end-to-end
// metric set, or — traced — the per-layer set and the spans behind it.
// The traced run measures its outside-the-program figures on a shorter
// untraced deployment run first and spends the rest of its time on the
// in-process replay; nothing traced ever enters an end-to-end number.
func measure(cfg *runConfig, traced bool) (*result, []span, error) {
	ds, err := makeDataset(cfg.n, cfg.datasetSeed)
	if err != nil {
		return nil, nil, err
	}
	if !traced {
		obs, err := runWorkload(cfg, ds, newOracle(ds.records))
		if err != nil {
			return nil, nil, err
		}
		obs.describe(os.Stderr)
		fmt.Fprintln(os.Stderr, "also measured; not gated, and reported by --trace 1:")
		printMetrics(os.Stderr, obs.outside())
		return obs.result(obs.endToEnd()), nil, nil
	}
	outside := *cfg
	outside.measure = time.Duration(float64(cfg.measure) * outsideShare)
	outside.setups = 1
	obs, err := runWorkload(&outside, ds, newOracle(ds.records))
	if err != nil {
		return nil, nil, err
	}
	obs.describe(os.Stderr)
	metrics := obs.outside()
	rep, err := tracedReplay(cfg, ds, cfg.measure-outside.measure)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range rep.metrics {
		metrics[k] = v
	}
	res := obs.result(metrics)
	res.Attempted += rep.attempted
	res.Failed += rep.failed
	res.Correct = res.Failed == 0
	if rep.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: traced replay: first failure: %v\n", rep.firstErr)
	}
	return res, rep.spans, nil
}

// outsideShare is the part of a traced run's -seconds spent on the
// untraced deployment run that feeds the outside-the-program figures.
const outsideShare = 0.4

func (o *observed) result(metrics map[string]metric) *result {
	if o.firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: first failure: %v\n", o.firstErr)
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "bench: %s has no value (too few samples)\n", name)
			o.failed++
			metrics[name] = metric{0, m.Unit}
		}
	}
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
}

// printMetrics lists every metric by name with its unit.
func printMetrics(w *os.File, metrics map[string]metric) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
}

func writeReport(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
