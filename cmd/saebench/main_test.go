package main

import (
	"slices"
	"strings"
	"testing"
)

// TestParse: parsing alone, before any figure runs, accepts every
// invocation CI makes and rejects as a usage error an unknown figure and
// every flag the chosen figure would otherwise ignore.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		args string
		ok   bool
	}{
		{"", true},
		{"-figure 6 -scale paper -n 50000,200000 -queries 20 -csv -seed 2 -quiet", true},
		{"-figure updates -n 20000", true},
		{"-figure shard -queries 200 -out BENCH_shard.ci.json", true},
		{"-figure shard -shards 1,4,16", true},
		{"-figure fastpath -fastiters 50 -out BENCH_fastpath.ci.json", true},
		{"-figure burst -burstms 600 -out BENCH_burst.ci.json", true},
		{"-figure write -out BENCH_write.ci.json", true},
		{"-figure agg -aggiters 10 -out BENCH_agg.ci.json", true},
		{"-figure replica -queries 200 -out BENCH_replica.ci.json", true},
		{"-figure reshard -queries 200 -out BENCH_reshard.ci.json", true},

		{"-figure bogus", false},
		{"-figure router", false},
		{"-figure shard -n 5000", false},
		{"-figure shard -scale paper", false},
		{"-figure agg -csv", false},
		{"-figure 5 -out x.json", false},
		{"-figure 5 -shards 2", false},
		{"-figure write -writers 8", false},
		{"-figure shard -shardjson x.json", false},
		{"-figure shard -shards 0,2", false},
		{"-n 100,x", false},
		{"-scale huge", false},
		{"-figure 5 extra", false},
	} {
		_, _, err := parse(strings.Fields(tc.args))
		if (err == nil) != tc.ok {
			t.Errorf("parse(%q) = %v, want ok=%v", tc.args, err, tc.ok)
		}
	}
}

// TestParseOutDefault: -out defaults to the figure's committed baseline
// name.
func TestParseOutDefault(t *testing.T) {
	_, o, err := parse([]string{"-figure", "agg"})
	if err != nil {
		t.Fatal(err)
	}
	if o.out != "BENCH_agg.json" {
		t.Fatalf("-out defaults to %q, want BENCH_agg.json", o.out)
	}
}

// TestFiguresNameDefinedFlags: every flag a row reads is defined, and
// every figure reads exactly one of -csv (it prints tables) and -out (it
// writes JSON).
func TestFiguresNameDefinedFlags(t *testing.T) {
	fs := newFlagSet(new(opts))
	for _, f := range figures {
		flags := strings.Fields(f.flags)
		for _, name := range flags {
			if fs.Lookup(name) == nil {
				t.Errorf("figure %s reads undefined flag -%s", f.name, name)
			}
		}
		if slices.Contains(flags, "csv") == slices.Contains(flags, "out") {
			t.Errorf("figure %s reads both or neither of -csv and -out", f.name)
		}
	}
}
