package main

import (
	"strings"
	"testing"
)

// TestParse: parsing alone (no port bound, no dataset generated) accepts
// every invocation the benchmark harness and the deployment smoke make,
// and rejects as a usage error every flag a role would otherwise ignore
// and every role that could not run.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		args string
		ok   bool
	}{
		{"-role primary -dir d/shard0 -shards 2 -shard-index 1 -n 5000 -seed 1 -addr 127.0.0.1:0 -pprof 127.0.0.1:9", true},
		{"-role router -sp a,b -te a,b -addr 127.0.0.1:0 -pprof 127.0.0.1:9", true},
		{"-role router -sp a,b -te a,b -replicas a1,a2;b1 -hedge-after 30ms", true},
		{"-role sp -addr 127.0.0.1:0 -n 20000 -seed 1 -shards 2 -shard-index 1 -tamper drop", true},
		{"-role te -n 20000 -shards 2 -shard-index 0", true},
		{"-role replica -addr 127.0.0.1:0 -primary a", true},
		{"-role client -router r -queries 12 -seed 1", true},
		{"-role client -sp a,b -te c,d -queries 12 -seed 1 -agg", true},
		{"-role chaos -router r -sp a,b -seed 1 -duration 8s", true},
		{"-role reshard -sp a,b -router r -dir x,y -split-shard 1", true},
		{"-role crashwriter -dir d -n 2000 -seed 1", true},
		{"-role crashverify -dir d -n 2000 -seed 1", true},

		{"", false},
		{"-role bogus", false},
		{"-role primary -dir d -tamper drop", false},
		{"-role te -tamper drop", false},
		{"-role sp -tamper reorder", false},
		{"-role client -router r -sp a", false},
		{"-role client", false},
		{"-role router -sp a -te b -dir d", false},
		{"-role primary", false},
		{"-role replica", false},
		{"-role sp -shards 2 -shard-index 2", false},
		{"-role tom -shards 2", false},
		{"-role crashwriter -dir d -batch 8", false},
		{"-role sp stray", false},
	} {
		_, _, err := parse(strings.Fields(tc.args))
		if (err == nil) != tc.ok {
			t.Errorf("parse(%q) = %v, want ok=%v", tc.args, err, tc.ok)
		}
	}
}

// TestRolesNameDefinedFlags: every flag a row reads is defined.
func TestRolesNameDefinedFlags(t *testing.T) {
	fs := newFlagSet(new(opts))
	for _, r := range roles {
		for _, name := range strings.Fields(r.flags) {
			if fs.Lookup(strings.TrimSuffix(name, "*")) == nil {
				t.Errorf("role %s reads undefined flag -%s", r.name, name)
			}
		}
	}
}
