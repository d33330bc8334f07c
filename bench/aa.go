package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"sae/internal/digest"
)

// gated is one end-to-end metric's regression rule, as BENCHMARK.json
// states it (spec_test.go keeps the two in step). bound is the share of
// the baseline's median by which the metric may get worse.
type gated struct {
	name   string
	better string
	bound  float64
}

var gatedMetrics = []gated{
	{"setup_s", "lower", 0.25},
	{"lat_p50_ms", "lower", 0.25},
	{"wire_bytes_per_op", "lower", 0.01},
	{"rss_mb", "lower", 0.25},
}

// environment is what a committed baseline must say about where it came
// from.
type environment struct {
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	SHANI      bool               `json:"sha_ni"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	DatasetN   int                `json:"dataset_n"`
	Seed       int64              `json:"workload_seed"`
	Seconds    float64            `json:"seconds"`
	Phases     map[string]float64 `json:"phases"` // seconds, and the cycle count
	Rates      map[string]float64 `json:"frozen_open_rates_op_s"`
	BgReadRate float64            `json:"write_mixed_bg_read_rate_op_s"`
}

func describeEnvironment(base runConfig) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		SHANI:      digest.Accelerated,
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		DatasetN:   base.n,
		Seed:       base.seed,
		Seconds:    base.measure.Seconds(),
		Phases: map[string]float64{
			"warm":         base.measure.Seconds() * warmShare,
			"cycles":       cycles,
			"closed_slice": base.measure.Seconds() * (1 - warmShare) / cycles * closedShare,
			"open_slice":   base.measure.Seconds() * (1 - warmShare) / cycles * (1 - closedShare),
		},
		Rates: map[string]float64{},
	}
	// Outside a git checkout (the driver's) the commit stays unknown.
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	for _, w := range workloads {
		env.Rates[w.name] = w.openRate
		if w.bgReadRate > 0 {
			env.BgReadRate = w.bgReadRate
		}
	}
	return env
}

// suiteSet is one pass over the whole suite: every workload's end-to-end
// and per-layer metrics.
type suiteSet map[string]map[string]metric // workload → metric → value

// comparison is one (metric, workload) row of the A/A table.
type comparison struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	RelDiff  float64   `json:"rel_diff"`
	Bound    float64   `json:"bound,omitempty"` // 0: not gated
	Within   bool      `json:"within"`
}

// aaReport is the committed baseline file.
type aaReport struct {
	Environment environment  `json:"environment"`
	Sets        []suiteSet   `json:"sets"`
	Comparisons []comparison `json:"comparisons"`
}

// runSuite runs every workload once untraced and once traced.
func runSuite(base runConfig) (suiteSet, error) {
	set := suiteSet{}
	for _, spec := range workloads {
		cfg := base
		cfg.spec = spec
		set[spec.name] = map[string]metric{}
		for _, traced := range []bool{false, true} {
			fmt.Fprintf(os.Stderr, "bench: %s (trace %v)...\n", spec.name, traced)
			res, _, err := measure(&cfg, traced)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.name, err)
			}
			if !res.Correct {
				return nil, fmt.Errorf("%s: %w", spec.name, errIncorrect)
			}
			for name, m := range res.Metrics {
				set[spec.name][name] = m
			}
		}
	}
	return set, nil
}

// compare builds the A/A table: for every (metric, workload), each set's
// value and the largest relative difference of a later set from the
// first. Gated metrics must stay within their bound; wire bytes and page
// counts are counts, not timings, and must repeat to under 1 %.
func compare(sets []suiteSet) []comparison {
	bounds := map[string]float64{}
	for _, g := range gatedMetrics {
		bounds[g.name] = g.bound
	}
	var rows []comparison
	for _, spec := range workloads {
		names := make([]string, 0, len(sets[0][spec.name]))
		for name := range sets[0][spec.name] {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			row := comparison{Workload: spec.name, Metric: name, Unit: sets[0][spec.name][name].Unit, Bound: bounds[name]}
			if strings.HasSuffix(name, ".pages_per_op") {
				row.Bound = 0.01
			}
			for _, set := range sets {
				row.Values = append(row.Values, set[spec.name][name].Value)
			}
			first := row.Values[0]
			for _, v := range row.Values[1:] {
				d := math.Abs(v - first)
				if first != 0 {
					d /= math.Abs(first)
				}
				row.RelDiff = math.Max(row.RelDiff, d)
			}
			row.Within = row.Bound == 0 || row.RelDiff <= row.Bound
			rows = append(rows, row)
		}
	}
	return rows
}

// runAA runs the whole suite n times on the same code with the same
// seed, prints the table, writes the report, and fails if a bounded
// metric moved by more than its bound between sets.
func runAA(base runConfig, n int, out string) error {
	if n < 2 {
		return fmt.Errorf("-aa needs at least 2 sets to compare, got %d", n)
	}
	rep := aaReport{Environment: describeEnvironment(base)}
	for i := 0; i < n; i++ {
		fmt.Fprintf(os.Stderr, "bench: A/A set %d of %d\n", i+1, n)
		set, err := runSuite(base)
		if err != nil {
			return err
		}
		rep.Sets = append(rep.Sets, set)
	}
	rep.Comparisons = compare(rep.Sets)
	outside := 0
	fmt.Printf("%-12s %-30s %-6s %s\n", "workload", "metric", "unit", "values | rel diff | bound")
	for _, row := range rep.Comparisons {
		verdict := ""
		switch {
		case row.Bound == 0:
			verdict = "(not gated)"
		case !row.Within:
			verdict = "OUTSIDE"
			outside++
		}
		vals := make([]string, len(row.Values))
		for i, v := range row.Values {
			vals[i] = fmt.Sprintf("%.4f", v)
		}
		fmt.Printf("%-12s %-30s %-6s %s | %.4f | %.2f %s\n", row.Workload, row.Metric, row.Unit,
			strings.Join(vals, " "), row.RelDiff, row.Bound, verdict)
	}
	if err := writeReport(out, rep); err != nil {
		return err
	}
	if outside > 0 {
		return fmt.Errorf("%d bounded metrics differ between sets of the same code by more than their bound", outside)
	}
	return nil
}
