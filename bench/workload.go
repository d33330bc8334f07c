package main

import (
	"fmt"
	"math/rand"
	"time"

	"sae/internal/record"
)

// batchSize is how many records one write_mixed op inserts or deletes.
const batchSize = 16

// writersInFlight is how many batches the owner connection keeps in
// flight during the closed phase, so group commit has something to
// coalesce.
const writersInFlight = 8

// opKind says what a request asks the deployment to do.
type opKind uint8

const (
	opRange  opKind = iota // verified range query through the router
	opAgg                  // verified COUNT/SUM/MIN/MAX through the router
	opInsert               // durable insert batch at shard 0's primary
	opDelete               // durable delete batch of earlier inserts
)

// request is one generated operation. Everything in it derives from the
// workload seed; the servers only ever see the request itself.
type request struct {
	kind opKind
	q    record.Range // opRange, opAgg
	keys []record.Key // opInsert, opDelete
}

// workloadSpec describes one workload. Rates are FROZEN: they were chosen
// once, on the commit that introduced the benchmark, at about half of the
// workload's closed-loop ops_s and rounded to two significant figures
// (see README.md, "How the rates were chosen"). A later commit is
// measured at the same offered load, so a latency change is the system's
// and not the generator's.
type workloadSpec struct {
	name   string
	kind   opKind  // opRange, opAgg, or opInsert for the write mix
	extent float64 // query extent as a share of the key domain
	// openRate is the open-loop arrival rate of the workload's ops, op/s.
	openRate float64
	// bgReadRate is the arrival rate of background range_scan-shaped
	// reads that run beside the writes for the whole run (write_mixed
	// only), op/s.
	bgReadRate float64
}

// workloads lists the four workloads in the order BENCHMARK.json names
// them. The extents are the paper's 0.5 % range query, a fifty times
// shorter one where per-request fixed cost dominates, and a twenty times
// wider one that only the annotated aggregate descent can answer cheaply.
var workloads = []workloadSpec{
	{name: "range_scan", kind: opRange, extent: 0.005, openRate: 690},
	{name: "range_short", kind: opRange, extent: 0.0001, openRate: 2800},
	{name: "agg_wide", kind: opAgg, extent: 0.10, openRate: 2000},
	{name: "write_mixed", kind: opInsert, extent: 0.005, openRate: 520, bgReadRate: 100},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// Streams of one run draw from independent generators so that the
// requests of one phase do not depend on how many another phase got
// through.
const (
	streamWarm = iota
	streamClosed
	streamOpen
	streamOpenArrivals
	streamBackground
	streamBackgroundArrivals
	streamsPerCaller
)

func streamRNG(seed int64, stream, caller int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(caller*streamsPerCaller+stream)))
}

// generator produces one stream's requests.
type generator struct {
	rng   *rand.Rand
	spec  workloadSpec
	span  record.Range // where write keys are drawn from (shard 0)
	count int          // requests produced so far; paces the 75/25 write mix
}

func newGenerator(seed int64, stream, caller int, spec workloadSpec, shard0 record.Range) *generator {
	return &generator{rng: streamRNG(seed, stream, caller), spec: spec, span: shard0}
}

// rangeOf draws a query of the given extent, uniformly placed.
func rangeOf(rng *rand.Rand, extent float64) record.Range {
	width := record.Key(extent * float64(record.KeyDomain))
	if width < 1 {
		width = 1
	}
	lo := record.Key(rng.Intn(record.KeyDomain - int(width)))
	return record.Range{Lo: lo, Hi: lo + width}
}

// next produces the stream's next request. The write mix is positional,
// not random — every fourth batch is a delete — so that bytes on the wire
// per op repeat from run to run.
func (g *generator) next() request {
	g.count++
	switch g.spec.kind {
	case opRange, opAgg:
		return request{kind: g.spec.kind, q: rangeOf(g.rng, g.spec.extent)}
	default:
		// A delete batch carries keys too: it falls back to an insert when
		// too few inserts have been acked to delete from.
		hi := g.span.Hi
		if hi >= record.KeyDomain {
			hi = record.KeyDomain - 1
		}
		keys := make([]record.Key, batchSize)
		for i := range keys {
			keys[i] = g.span.Lo + record.Key(g.rng.Intn(int(hi-g.span.Lo)+1))
		}
		if g.count%4 == 0 {
			return request{kind: opDelete, keys: keys}
		}
		return request{kind: opInsert, keys: keys}
	}
}

// poissonArrivals returns the send offsets of a Poisson process of the
// given rate over dur.
func poissonArrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	if rate <= 0 {
		return out
	}
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}
