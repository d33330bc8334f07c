package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"sae/internal/record"
)

// benchmarkSpec is ../BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return spec
}

// miniature is a run small enough for a test: a few thousand records,
// servers in-process, about a second of load.
func miniature(t *testing.T, name string) *runConfig {
	t.Helper()
	spec, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return &runConfig{
		spec: spec, seed: 1, measure: 900 * time.Millisecond,
		n: 4000, datasetSeed: datasetSeed, workDir: t.TempDir(), setups: 1,
	}
}

// The miniature of all four workloads: every metric BENCHMARK.json names
// comes out, finite, under the unit it names; nothing else does; no
// operation fails.
func TestEveryMetricOfTheContractIsEmitted(t *testing.T) {
	spec := readSpec(t)
	for _, w := range spec.Workloads {
		cfg := miniature(t, w.Name)
		for _, traced := range []bool{false, true} {
			res, spans, err := measure(cfg, traced)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.Name, traced, err)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
				if len(spans) == 0 {
					t.Errorf("%s: the traced run recorded no spans", w.Name)
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
				// The traced run's validity limits are for full-length runs;
				// the untraced miniature must be clean.
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
				}
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): %s is not emitted", w.Name, traced, name)
				case m.Unit != unit:
					t.Errorf("%s: %s has unit %q, the contract says %q", w.Name, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, name, m.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s (trace %v): %s is emitted but not in the contract", w.Name, traced, name)
				}
			}
			if !traced {
				for _, m := range spec.EndToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v; end-to-end metrics are never 0", w.Name, m.Name, res.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// The code's own tables agree with the contract, and the contract keeps
// inside the driver's limits.
func TestContractMatchesTheCode(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		seen[n] = true
	}
	for i, w := range spec.Workloads {
		check(w.Name, "")
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(gatedMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(spec.EndToEnd), len(gatedMetrics))
	}
	hasSetup := false
	for i, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		g := gatedMetrics[i]
		if m.Name != g.name || m.Better != g.better || m.Bound != g.bound {
			t.Errorf("end-to-end metric %d: contract {%s %s %v}, code {%s %s %v}", i, m.Name, m.Better, m.Bound, g.name, g.better, g.bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths %v", spec.Paths)
	}
}

// A wrong oracle must fail operations and with them the run: here the
// oracle believes in a dataset whose keys lie elsewhere.
func TestAWrongOracleFailsTheRun(t *testing.T) {
	cfg := miniature(t, "range_scan")
	ds, err := makeDataset(cfg.n, cfg.datasetSeed)
	if err != nil {
		t.Fatal(err)
	}
	wrong := append([]record.Record(nil), ds.records[1:]...)
	for i := range wrong {
		wrong[i].Key = record.Key(i) // nothing lies where the servers have it
	}
	obs, err := runWorkload(cfg, ds, newOracle(wrong))
	if err != nil {
		t.Fatal(err)
	}
	if obs.failed == 0 || obs.firstErr == nil {
		t.Fatalf("a wrong oracle failed %d of %d operations", obs.failed, obs.attempted)
	}
	res := obs.result(obs.endToEnd())
	if res.Correct || res.Failed == 0 {
		t.Errorf("result says correct=%v failed=%d", res.Correct, res.Failed)
	}

	// And the honest oracle catches a lying answer: one record dropped.
	good := newOracle(ds.records)
	q := record.Range{Lo: 0, Hi: record.KeyDomain}
	if err := good.checkRange(q, ds.records, good.now(), good.now()); err != nil {
		t.Errorf("the full dataset is the right answer to the full range: %v", err)
	}
	if err := good.checkRange(q, ds.records[1:], good.now(), good.now()); err == nil {
		t.Error("an answer missing a record passed the oracle")
	}
}

// The write oracle's window rules: a record must appear once its insert
// was acked before the query went out, may appear while a write is in
// flight, and must be gone once its delete was acked before the query.
func TestOracleJudgesReadsBesideWrites(t *testing.T) {
	o := newOracle(nil)
	q := record.Range{Lo: 0, Hi: 100}
	rec := record.Synthesize(writtenIDBase+1, 50)
	recs := []record.Record{rec}

	o.insertSubmitted(recs)
	inFlight := o.now()
	if err := o.checkRange(q, nil, inFlight, o.now()); err != nil {
		t.Errorf("insert in flight, record absent: %v", err)
	}
	if err := o.checkRange(q, recs, inFlight, o.now()); err != nil {
		t.Errorf("insert in flight, record present: %v", err)
	}
	o.insertAcked(recs)
	after := o.now()
	if err := o.checkRange(q, nil, after, o.now()); err == nil {
		t.Error("insert acked before the query, record absent: passed")
	}
	if err := o.checkRange(q, recs, after, o.now()); err != nil {
		t.Errorf("insert acked, record present: %v", err)
	}
	o.deleteSubmitted([]record.ID{rec.ID})
	if err := o.checkRange(q, nil, o.now(), o.now()); err != nil {
		t.Errorf("delete in flight, record absent: %v", err)
	}
	o.deleteAcked([]record.ID{rec.ID})
	gone := o.now()
	if err := o.checkRange(q, recs, gone, o.now()); err == nil {
		t.Error("delete acked before the query, record present: passed")
	}
	if err := o.checkRange(q, []record.Record{record.Synthesize(writtenIDBase+9, 50)}, gone, o.now()); err == nil {
		t.Error("a record nobody wrote passed")
	}
	if ins, del := o.liveWritten(); ins != 1 || del != 1 {
		t.Errorf("liveWritten = %d, %d", ins, del)
	}
}

// Process hygiene: a child that dies takes the run down at once, with the
// end of its log; close reaps every child and removes every directory.
func TestADeadChildFailsFastWithItsLog(t *testing.T) {
	dir := t.TempDir()
	fake := filepath.Join(dir, "fake-saenet")
	script := "#!/bin/sh\nfor i in $(seq 1 30); do echo \"line $i\" >&2; done\n" +
		"echo 'saenet fake: serving on 127.0.0.1:9 (ctrl-c to stop)' >&2\nsleep 0.3\necho 'fatal: out of luck' >&2\nexit 3\n"
	if err := os.WriteFile(fake, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	work := filepath.Join(dir, "work")
	d, err := launchProcs(fake, work, 10, 1)
	if err != nil {
		t.Fatalf("the fake servers print an address, so launch succeeds: %v", err)
	}
	if d.routerAddr() != "127.0.0.1:9" {
		t.Errorf("router address parsed as %q", d.routerAddr())
	}
	select {
	case <-d.alive().Done():
	case <-time.After(5 * time.Second):
		t.Fatal("children exited and nobody noticed")
	}
	if c := context.Cause(d.alive()).Error(); !strings.Contains(c, "exited on its own") || !strings.Contains(c, "fatal: out of luck") || strings.Contains(c, "line 5\n") {
		t.Errorf("cause does not carry the last %d log lines and only those:\n%s", logTailLines, c)
	}
	if _, _, err := d.procs(); err == nil {
		t.Error("sampling a dead deployment must fail, not report zeros")
	}
	d.close()
	d.close() // twice is safe
	if left, _ := os.ReadDir(work); len(left) != 0 {
		t.Errorf("%d entries left under the work directory after close", len(left))
	}
	for _, c := range d.children {
		if c.cmd.ProcessState == nil {
			t.Errorf("%s was not reaped", c.name)
		}
	}

	// A live child is interrupted and reaped by close.
	sleeper := filepath.Join(dir, "sleeper")
	os.WriteFile(sleeper, []byte("#!/bin/sh\necho 'serving on 127.0.0.1:9 (x)'\nexec sleep 60\n"), 0o755)
	d, err = launchProcs(sleeper, work, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	pids := []int{}
	for _, c := range d.children {
		pids = append(pids, c.cmd.Process.Pid)
	}
	d.close()
	for _, pid := range pids {
		if err := exec.Command("kill", "-0", strconv.Itoa(pid)).Run(); err == nil {
			t.Errorf("pid %d is still alive after close", pid)
		}
	}
}
