package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/workload"
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
		{"-role tom -addr 127.0.0.1:0 -n 20000", false},
		{"-role router -sp a,b -te a,b -tom x", false},
		{"-role crashwriter -dir d -batch 8", false},
		{"-role sp stray", false},
		{"-role primary -dir d -n -5", false},
		{"-role sp -n 4294967296", false},
		{"-role crashwriter -dir d -n 0", true},
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

// TestPartitionMatchesWholeDataset: the plan a server derives from keys alone
// is the plan of the whole dataset, and the records it synthesizes are
// byte for byte that plan's partition of the whole dataset, at every
// index of every plan, degraded plans included.
func TestPartitionMatchesWholeDataset(t *testing.T) {
	type layout struct{ n, shards int }
	var layouts []layout
	for _, n := range []int{0, 1, 50, 1_000, 20_000} {
		for shards := 1; shards <= 4; shards++ {
			layouts = append(layouts, layout{n, shards})
		}
	}
	layouts = append(layouts, layout{50, 64})
	for _, dist := range []workload.Distribution{workload.UNF, workload.SKW} {
		for _, l := range layouts {
			ds, err := workload.Generate(dist, l.n, 1)
			if err != nil {
				t.Fatal(err)
			}
			want := shard.PlanFor(ds.Records, l.shards)
			parts := want.Partition(ds.Records)
			for i := range parts {
				name := fmt.Sprintf("%s n=%d shard %d/%d", dist, l.n, i, l.shards)
				plan, part, err := partition(&opts{dist: string(dist), n: l.n, seed: 1, shards: l.shards, shardIndex: i})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !plan.Equal(want) {
					t.Fatalf("%s: plan %v, want %v", name, plan, want)
				}
				got, err := io.ReadAll(workload.Reader(part))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, encode(parts[i])) {
					t.Fatalf("%s: %d records differ from the partition's %d", name, len(part), len(parts[i]))
				}
			}
		}
	}
}

func encode(recs []record.Record) []byte {
	var b []byte
	for i := range recs {
		b = recs[i].AppendBinary(b)
	}
	return b
}

// TestPartitionPastDegradedPlan: a shard index the flags allow but a
// degraded plan does not have is an error naming the plan's real shard
// count.
func TestPartitionPastDegradedPlan(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	shards := shard.PlanFor(ds.Records, 64).Shards()
	if shards >= 64 {
		t.Fatalf("50 records planned into %d of 64 shards; the plan does not degrade", shards)
	}
	_, _, err = partition(&opts{dist: "UNF", n: 50, seed: 1, shards: 64, shardIndex: 63})
	if want := fmt.Sprintf("plan's %d shards", shards); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("partition(n=50, 64 shards, index 63) = %v, want an error naming %q", err, want)
	}
}

// BenchmarkPartition times a primary's partition phase at the
// deployment the end-to-end benchmark launches: shard 0 of the UNF
// relation of 100 000 records split in two.
func BenchmarkPartition(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := partition(&opts{dist: "UNF", n: 100_000, seed: 1, shards: 2}); err != nil {
			b.Fatal(err)
		}
	}
}
