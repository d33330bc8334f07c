package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"sae/internal/workload"
)

// TestRunShardScalingSmoke runs a miniature sweep and checks the cells and
// the JSON payload are well-formed; absolute throughput is machine-bound
// and not asserted.
func TestRunShardScalingSmoke(t *testing.T) {
	cfg := ShardConfig{
		N:           4_000,
		ShardCounts: []int{1, 2},
		Queries:     60,
		Workers:     8,
		PerAccess:   5 * time.Microsecond,
		Extent:      0.001,
		Dist:        workload.UNF,
		Seed:        3,
	}
	res, err := RunShardScaling(cfg)
	if err != nil {
		t.Fatalf("RunShardScaling: %v", err)
	}
	cells := res.Results
	if len(cells) != 2 {
		t.Fatalf("%d cells, want 2", len(cells))
	}
	for i, c := range cells {
		if c.Shards != cfg.ShardCounts[i] || c.Queries != cfg.Queries {
			t.Fatalf("cell %d mis-labeled: %+v", i, c)
		}
		if c.QueriesPerSec <= 0 || c.Speedup <= 0 || c.AvgShardsTouched < 1 {
			t.Fatalf("cell %d has degenerate metrics: %+v", i, c)
		}
	}
	if cells[0].Speedup != 1 {
		t.Fatalf("baseline speedup %v, want 1", cells[0].Speedup)
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, res); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded struct {
		Benchmark string      `json:"benchmark"`
		Unit      string      `json:"unit"`
		Results   []ShardCell `json:"results"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("BENCH_shard.json payload does not parse: %v", err)
	}
	if decoded.Benchmark != "sharded_queries" || len(decoded.Results) != 2 {
		t.Fatalf("unexpected payload: %+v", decoded)
	}
}

// TestSimDisksSerializePerShard: one disk's reservations never overlap,
// two disks run in parallel.
func TestSimDisksSerializePerShard(t *testing.T) {
	disks := NewSimDisks(2)
	const d = 5 * time.Millisecond
	start := time.Now()
	done := make(chan struct{}, 4)
	for i := 0; i < 4; i++ {
		go func() {
			disks.Stall(0, d)
			done <- struct{}{}
		}()
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	if elapsed := time.Since(start); elapsed < 4*d {
		t.Fatalf("4 stalls on one disk finished in %v, below the serialized %v", elapsed, 4*d)
	}
	start = time.Now()
	go func() {
		disks.Stall(0, d)
		done <- struct{}{}
	}()
	disks.Stall(1, d)
	<-done
	if elapsed := time.Since(start); elapsed >= 2*d {
		t.Fatalf("two different disks serialized: %v", elapsed)
	}
}
