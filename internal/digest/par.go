package digest

import (
	"runtime"
	"sync"

	"sae/internal/record"
)

// Parallel batch digesting. Record digests are independent, and the XOR
// fold that aggregates them is commutative and associative, so a batch
// can be chunked across a bounded worker pool — each worker hashing with
// its own serialization scratch and folding into its own Accumulator —
// and the per-worker sums merged in any order without changing a single
// output bit. This is the crypto fan-out behind the TE's bulk digesting
// and the client's Figure 7 verification fast path.

// parThreshold is the batch size below which fan-out costs more than it
// saves. Through the 16-lane kernel a record costs under 0.1 µs, so a
// 500-record answer folds inline in about 50 µs — less than it loses
// waiting for a second P on a loaded box (on range_scan, inline beat a
// two-worker split on latency and client CPU). Bulk loads and bursts of
// many answers still split.
const parThreshold = 1024

// DefaultWorkers returns the default crypto fan-out: every schedulable
// CPU, straight from runtime.GOMAXPROCS(0). The old fixed cap of 8 made
// verify throughput flat past 8 cores (and pointlessly woke 8 goroutines
// on boxes with fewer); sizing from GOMAXPROCS tracks the actual
// schedulable parallelism, and clampWorkers still collapses to a fully
// inline, dispatch-free path when only one worker is useful.
func DefaultWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w < 1 {
		w = 1
	}
	return w
}

// clampWorkers bounds the fan-out for n items under the requested worker
// count (0 or negative means DefaultWorkers).
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if n < parThreshold || workers < 2 {
		return 1
	}
	if workers > n {
		workers = n
	}
	return workers
}

// chunk returns the half-open item range worker w of n workers owns.
func chunk(items, workers, w int) (lo, hi int) {
	lo = items * w / workers
	hi = items * (w + 1) / workers
	return lo, hi
}

// RecordDigests fills dst[i] with OfRecord(&recs[i]) for every record,
// fanning the hashing out across up to `workers` goroutines (0 = default).
// dst must be at least as long as recs. Each worker reuses one
// serialization scratch, so the batch performs zero per-record
// allocations.
func RecordDigests(dst []Digest, recs []record.Record, workers int) {
	w := clampWorkers(workers, len(recs))
	if w == 1 {
		digestRecordsInto(dst, recs)
		return
	}
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		lo, hi := chunk(len(recs), w, k)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			digestRecordsInto(dst[lo:hi], recs[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
}

// XORFoldWireBurst is the one wire-form fold — the client's
// recompute-and-fold step over received payloads, hashed in place. It
// folds the digests of the canonical record encodings packed
// back-to-back in each encs[i] and writes payload i's fold to dst[i]
// (at least len(encs) long); an empty payload folds to the zero digest,
// the empty-result token. The burst's records, numbered across all
// payloads in order, are split into one contiguous span per worker —
// one dispatch for the whole burst, balanced by records, not payloads —
// so a single 500-record payload fans out exactly like many small ones.
// It panics if a payload is not whole records. The outputs are
// bit-identical to a serial fold for any worker count.
func XORFoldWireBurst(dst []Digest, encs [][]byte, workers int) {
	total := 0
	for i, enc := range encs {
		if len(enc)%record.Size != 0 {
			panic("digest: XORFoldWireBurst requires whole record encodings")
		}
		total += len(enc) / record.Size
		dst[i] = Zero
	}
	w := clampWorkers(workers, total)
	if w == 1 {
		foldSpan(dst, encs, 0, total)
		return
	}
	// A payload a span covers only in part comes back as a partial sum,
	// merged here after the join; a worker has at most two (its span's
	// first and last payloads). An unused slot XORs Zero into dst[0].
	edges := make([][2]partial, w)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		lo, hi := chunk(total, w, k)
		wg.Add(1)
		go func(k, lo, hi int) {
			defer wg.Done()
			edges[k] = foldSpan(dst, encs, lo, hi)
		}(k, lo, hi)
	}
	wg.Wait()
	for _, e := range edges {
		for _, p := range e {
			xorInto(&dst[p.i], p.d[:])
		}
	}
}

// partial is one worker's fold over part of payload i.
type partial struct {
	i int
	d Digest
}

// foldSpan folds records [lo, hi) of the burst. A payload the span covers
// whole is written to dst directly — no other span touches it — and the
// at most two it covers in part are returned.
func foldSpan(dst []Digest, encs [][]byte, lo, hi int) (edges [2]partial) {
	ne, base := 0, 0
	for i := 0; i < len(encs) && base < hi; i++ {
		n := len(encs[i]) / record.Size
		a, b := max(lo-base, 0), min(hi-base, n)
		base += n
		if a >= b {
			continue
		}
		var acc Accumulator
		foldWireInto(&acc, encs[i][a*record.Size:b*record.Size])
		if a == 0 && b == n {
			dst[i] = acc.Sum()
		} else {
			edges[ne] = partial{i, acc.Sum()}
			ne++
		}
	}
	return edges
}

// XORFoldWire folds one received payload: XORFoldWireBurst at n = 1.
func XORFoldWire(enc []byte, workers int) Digest {
	var d [1]Digest
	XORFoldWireBurst(d[:], [][]byte{enc}, workers)
	return d[0]
}
