package experiments

import (
	"crypto/sha1"
	"fmt"
	"runtime"
	"time"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/record"
	"sae/internal/workload"
)

// Fast-path experiment: before/after numbers for the zero-copy,
// parallel-crypto serve→wire→verify chain. "Seed" measures the
// pre-fastpath pipeline (materialize the result slice, encode it into a
// fresh payload, decode on the client, re-serialize every record to hash
// it); "fast" measures the new chain (page-byte streaming into a reused
// frame, in-place hashing of the wire bytes through the SHA-NI core).
// The numbers land in BENCH_fastpath.json via saebench -figure fastpath.

// FastpathConfig parameterizes the run.
type FastpathConfig struct {
	// N is the dataset cardinality.
	N int
	// ResultRecords is the target result size per query (the verify and
	// serve measurements are per-record dominated).
	ResultRecords int
	// Iters is the measured iteration count per variant.
	Iters int
	// WorkerCounts are the verify fan-outs to sweep.
	WorkerCounts []int
	Dist         workload.Distribution
	Seed         int64
	Progress     func(string)
}

// DefaultFastpathConfig mirrors the root benchmarks: 100K records, ~1000
// record results (the paper's mid selectivity).
func DefaultFastpathConfig() FastpathConfig {
	return FastpathConfig{
		N:             100_000,
		ResultRecords: 1000,
		Iters:         300,
		WorkerCounts:  []int{1, 2, 4},
		Dist:          workload.UNF,
		Seed:          1,
	}
}

// FastpathVerifyPoint is one verify-variant measurement.
type FastpathVerifyPoint struct {
	Workers    int     `json:"workers"`
	NsPerRec   float64 `json:"nsPerRecord"`
	RecordsSec float64 `json:"recordsPerSec"`
}

// FastpathResult is the machine-readable outcome.
type FastpathResult struct {
	N             int  `json:"n"`
	ResultRecords int  `json:"resultRecords"`
	SHANI         bool `json:"shaNI"`
	GOMAXPROCS    int  `json:"gomaxprocs"`

	VerifySeedNsPerRec float64               `json:"verifySeedNsPerRecord"`
	VerifyFastNsPerRec float64               `json:"verifyFastNsPerRecord"`
	VerifySpeedup      float64               `json:"verifySpeedup"`
	VerifyWorkers      []FastpathVerifyPoint `json:"verifyWorkers"`

	ServeSeedQPS      float64 `json:"serveSeedQueriesPerSec"`
	ServeFastQPS      float64 `json:"serveFastQueriesPerSec"`
	ServeSpeedup      float64 `json:"serveSpeedup"`
	ServeSeedAllocsOp float64 `json:"serveSeedAllocsPerOp"`
	ServeFastAllocsOp float64 `json:"serveFastAllocsPerOp"`
	ServeSeedBytesOp  float64 `json:"serveSeedBytesPerOp"`
	ServeFastBytesOp  float64 `json:"serveFastBytesPerOp"`
	AllocReduction    float64 `json:"serveAllocReduction"`
}

// seedClientVerify replicates the pre-fastpath client pipeline exactly:
// decode the wire payload into fresh records, then re-serialize and hash
// every record through crypto/sha1 (the stdlib schedule the seed used —
// this PR's SHA-NI core must not flatter the baseline) and XOR-fold.
func seedClientVerify(q record.Range, payload []byte, vt digest.Digest) error {
	n := int(uint32(payload[0])<<24 | uint32(payload[1])<<16 | uint32(payload[2])<<8 | uint32(payload[3]))
	b := payload[4:]
	recs := make([]record.Record, 0, n)
	for i := 0; i < n; i++ {
		r, err := record.Unmarshal(b)
		if err != nil {
			return err
		}
		recs = append(recs, r)
		b = b[record.Size:]
	}
	var acc digest.Accumulator
	var buf [record.Size]byte
	for i := range recs {
		if !q.Contains(recs[i].Key) {
			return fmt.Errorf("experiments: record outside range")
		}
		acc.Add(digest.Digest(sha1.Sum(recs[i].AppendBinary(buf[:0]))))
	}
	if acc.Sum() != vt {
		return fmt.Errorf("experiments: token mismatch")
	}
	return nil
}

// encodeRecordsSeed replicates the pre-fastpath wire encoder: a fresh
// payload per response.
func encodeRecordsSeed(recs []record.Record) []byte {
	out := make([]byte, 4, 4+len(recs)*record.Size)
	out[0] = byte(len(recs) >> 24)
	out[1] = byte(len(recs) >> 16)
	out[2] = byte(len(recs) >> 8)
	out[3] = byte(len(recs))
	for i := range recs {
		out = recs[i].AppendBinary(out)
	}
	return out
}

// allocsDuring runs fn and returns (allocated objects, allocated bytes).
func allocsDuring(fn func()) (float64, float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// RunFastpath measures the before/after chain.
func RunFastpath(cfg FastpathConfig) (*FastpathResult, error) {
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}
	ds, err := workload.Generate(cfg.Dist, cfg.N, cfg.Seed)
	if err != nil {
		return nil, err
	}
	progress(fmt.Sprintf("fastpath: outsourcing %d records", cfg.N))
	sys, err := core.NewSystem(ds.Records)
	if err != nil {
		return nil, err
	}

	// Pick a range holding ~ResultRecords records.
	all, _, err := sys.SP.Query(record.Range{Lo: 0, Hi: record.KeyDomain - 1})
	if err != nil {
		return nil, err
	}
	if len(all) < cfg.ResultRecords {
		return nil, fmt.Errorf("experiments: dataset yields %d records, need %d", len(all), cfg.ResultRecords)
	}
	start := (len(all) - cfg.ResultRecords) / 2
	q := record.Range{Lo: all[start].Key, Hi: all[start+cfg.ResultRecords-1].Key}
	result, _, err := sys.SP.Query(q)
	if err != nil {
		return nil, err
	}
	vt, _, err := sys.TE.GenerateVT(q)
	if err != nil {
		return nil, err
	}
	enc := make([]byte, 0, len(result)*record.Size)
	for i := range result {
		enc = result[i].AppendBinary(enc)
	}
	nRec := len(result)
	payload := encodeRecordsSeed(result)

	res := &FastpathResult{
		N:             cfg.N,
		ResultRecords: nRec,
		SHANI:         digest.Accelerated,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
	}

	// Client verification: seed = materialized records through the serial
	// Figure 7 check; fast = in-place wire-bytes verification.
	progress("fastpath: measuring client verification")
	iters := cfg.Iters
	measure := func(fn func()) float64 {
		fn() // warm
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(iters*nRec)
	}
	res.VerifySeedNsPerRec = measure(func() {
		if err := seedClientVerify(q, payload, vt); err != nil {
			panic(err)
		}
	})
	vp1 := core.NewVerifyPool(1)
	res.VerifyFastNsPerRec = measure(func() {
		if _, err := vp1.VerifyEncoded(q, enc, vt); err != nil {
			panic(err)
		}
	})
	res.VerifySpeedup = res.VerifySeedNsPerRec / res.VerifyFastNsPerRec
	for _, w := range cfg.WorkerCounts {
		vp := core.NewVerifyPool(w)
		ns := measure(func() {
			if _, err := vp.VerifyEncoded(q, enc, vt); err != nil {
				panic(err)
			}
		})
		res.VerifyWorkers = append(res.VerifyWorkers, FastpathVerifyPoint{
			Workers:    w,
			NsPerRec:   ns,
			RecordsSec: 1e9 / ns,
		})
	}

	// SP serve: seed = materialize + fresh-payload encode; fast = copy
	// borrowed page runs into one reused frame.
	progress("fastpath: measuring SP serve path")
	seedServe := func() {
		recs, _, err := sys.SP.QueryCtx(exec.NewContext(), q)
		if err != nil {
			panic(err)
		}
		if p := encodeRecordsSeed(recs); len(p) < nRec*record.Size {
			panic("short payload")
		}
	}
	frame := make([]byte, 0, 4+nRec*record.Size+1024)
	// The serving path at n = 1, with the scratch a serve lane would hold.
	lane := exec.NewLane(0)
	var sc core.BurstScratch
	qs := []record.Range{q}
	fastServe := func() {
		frame = append(frame[:0], 0, 0, 0, 0)
		if err := sys.SP.ServeBurstCtx(lane.Contexts(1), qs, &sc, func(_ int, enc []byte) error {
			frame = append(frame, enc...)
			return nil
		}); err != nil {
			panic(err)
		}
	}
	seedServe()
	fastServe()
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		seedServe()
	}
	seedDur := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		fastServe()
	}
	fastDur := time.Since(t0)
	res.ServeSeedQPS = float64(iters) / seedDur.Seconds()
	res.ServeFastQPS = float64(iters) / fastDur.Seconds()
	res.ServeSpeedup = res.ServeFastQPS / res.ServeSeedQPS
	mallocs, bytes := allocsDuring(func() {
		for i := 0; i < iters; i++ {
			seedServe()
		}
	})
	res.ServeSeedAllocsOp = mallocs / float64(iters)
	res.ServeSeedBytesOp = bytes / float64(iters)
	mallocs, bytes = allocsDuring(func() {
		for i := 0; i < iters; i++ {
			fastServe()
		}
	})
	res.ServeFastAllocsOp = mallocs / float64(iters)
	res.ServeFastBytesOp = bytes / float64(iters)
	res.AllocReduction = allocReduction(res.ServeSeedAllocsOp, res.ServeFastAllocsOp, iters)
	return res, nil
}

// allocReduction is the seed serve's allocations per op over the fast
// serve's. A fast serve that allocated nothing in iters ops made fewer
// than 1/iters allocations per op, so the ratio is reported at its lower
// bound, seed × iters, rather than as 0.
func allocReduction(seedOp, fastOp float64, iters int) float64 {
	if fastOp == 0 {
		return seedOp * float64(iters)
	}
	return seedOp / fastOp
}
