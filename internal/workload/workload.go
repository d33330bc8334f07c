// Package workload generates the datasets and query loads of the paper's
// evaluation: search keys are 4-byte integers in [0, 10^7], records are 500
// bytes, and two key distributions are used — UNF (uniform) and SKW (Zipf
// with skew parameter 0.8, concentrating ~77% of the keys in 20% of the
// domain). Queries are uniformly placed ranges with a fixed extent of 0.5%
// of the domain.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"sae/internal/record"
)

// Distribution names a key distribution.
type Distribution string

// The paper's two datasets.
const (
	UNF Distribution = "UNF"
	SKW Distribution = "SKW"
)

// DefaultExtent is the paper's query extent: 0.5% of the key domain.
const DefaultExtent = 0.005

// ZipfTheta is the paper's skew parameter for SKW.
const ZipfTheta = 0.8

// zipfBuckets controls the granularity of the bucketed Zipf sampler.
const zipfBuckets = 1024

// Dataset is a generated relation plus its provenance.
type Dataset struct {
	Dist    Distribution
	Seed    int64
	Records []record.Record // sorted by (key, id)
}

// MaxN is the largest cardinality Keys and Generate accept: ids are 1..n
// and a packed pair keeps its id in 32 bits.
const MaxN = math.MaxUint32

// Generate produces n records with keys drawn from dist, deterministically
// from seed. Records are returned sorted by key, ready for clustered bulk
// loading; ids are 1..n (assigned before sorting, so id order is insertion
// order, not key order). It is Synthesize over Keys.
func Generate(dist Distribution, n int, seed int64) (*Dataset, error) {
	pairs, err := Keys(dist, n, seed)
	if err != nil {
		return nil, err
	}
	return &Dataset{Dist: dist, Seed: seed, Records: Synthesize(pairs)}, nil
}

// Keys draws the (key, id) pairs of Generate's n records without their
// payloads, sorted by (key, id) and each packed as uint64(key)<<32 | id
// (see Unpack). A process that serves one shard plans from these and
// synthesizes only its own span.
func Keys(dist Distribution, n int, seed int64) ([]uint64, error) {
	if n < 0 || uint64(n) > MaxN {
		return nil, fmt.Errorf("workload: cardinality %d outside 0..%d", n, uint64(MaxN))
	}
	rng := rand.New(rand.NewSource(seed))
	var keyFn func() record.Key
	switch dist {
	case UNF:
		keyFn = func() record.Key { return record.Key(rng.Intn(record.KeyDomain)) }
	case SKW:
		z := newZipfSampler(rng, calibratedTheta(), zipfBuckets, record.KeyDomain)
		keyFn = z.next
	default:
		return nil, fmt.Errorf("workload: unknown distribution %q", dist)
	}
	// Packing puts the key in the high half, so integer order is (key, id)
	// order; ids are unique, so the order is total.
	pairs := make([]uint64, n)
	for i := range pairs {
		pairs[i] = uint64(keyFn())<<32 | uint64(i+1)
	}
	return sortByKey(pairs), nil
}

// sortByKey sorts pairs drawn in increasing id order into (key, id) order:
// a stable LSD radix sort over the three bytes of a key below 2^24, one
// counting pass per byte. Stability keeps equal keys in id order.
func sortByKey(pairs []uint64) []uint64 {
	tmp := make([]uint64, len(pairs))
	for shift := 32; shift < 56; shift += 8 {
		var at [256]int
		for _, p := range pairs {
			at[byte(p>>shift)]++
		}
		sum := 0
		for b, c := range at {
			at[b], sum = sum, sum+c
		}
		for _, p := range pairs {
			d := byte(p >> shift)
			tmp[at[d]] = p
			at[d]++
		}
		pairs, tmp = tmp, pairs
	}
	return pairs
}

// Unpack splits a pair packed by Keys.
func Unpack(pair uint64) (record.Key, record.ID) {
	return record.Key(pair >> 32), record.ID(uint32(pair))
}

// Synthesize returns the records of packed pairs, in their order.
func Synthesize(pairs []uint64) []record.Record {
	records := make([]record.Record, len(pairs))
	for i, p := range pairs {
		key, id := Unpack(p)
		records[i] = record.Synthesize(id, key)
	}
	return records
}

// Reader streams the canonical encodings of the records of packed pairs,
// in their order, synthesizing each in place: what Synthesize would
// encode, with no record built.
func Reader(pairs []uint64) *record.Reader {
	return record.NewReader(len(pairs), func(i int, dst []byte) error {
		key, id := Unpack(pairs[i])
		record.SynthesizeInto(dst, id, key)
		return nil
	})
}

// SkewConcentration is the paper's observable characterization of SKW:
// "77% of the search keys are concentrated in 20% of the domain".
const (
	SkewConcentration = 0.77
	SkewHotFraction   = 0.2
)

// calibratedTheta returns the power-law exponent under which the bucketed
// sampler reproduces the paper's 77%/20% concentration exactly. The nominal
// θ = 0.8 under the standard i^-θ bucket weighting yields only ~65%
// concentration, so we treat the paper's quoted concentration — which is
// what determines SKW result cardinalities in Figures 5-8 — as the ground
// truth and solve for the exponent (≈0.85) by bisection.
func calibratedTheta() float64 {
	frac := SkewHotFraction
	hot := int(frac * zipfBuckets)
	mass := func(theta float64) float64 {
		hotSum, total := 0.0, 0.0
		for i := 1; i <= zipfBuckets; i++ {
			w := math.Pow(float64(i), -theta)
			total += w
			if i <= hot {
				hotSum += w
			}
		}
		return hotSum / total
	}
	lo, hi := 0.1, 3.0
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if mass(mid) < SkewConcentration {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// zipfSampler draws keys from a bucketed power-law: the domain is divided
// into equal buckets, bucket i (1-based) has weight i^-θ, and keys are
// uniform within a bucket. The standard library's rand.Zipf requires θ > 1,
// so the paper's θ = 0.8 needs this hand-rolled inverse-CDF sampler.
type zipfSampler struct {
	rng        *rand.Rand
	cum        []float64 // cumulative bucket weights, normalized to [0,1]
	bucketSize int
	domain     int
}

func newZipfSampler(rng *rand.Rand, theta float64, buckets, domain int) *zipfSampler {
	cum := make([]float64, buckets)
	total := 0.0
	for i := 0; i < buckets; i++ {
		total += math.Pow(float64(i+1), -theta)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &zipfSampler{
		rng:        rng,
		cum:        cum,
		bucketSize: domain / buckets,
		domain:     domain,
	}
}

func (z *zipfSampler) next() record.Key {
	u := z.rng.Float64()
	b := sort.SearchFloat64s(z.cum, u)
	if b >= len(z.cum) {
		b = len(z.cum) - 1
	}
	lo := b * z.bucketSize
	k := lo + z.rng.Intn(z.bucketSize)
	if k >= z.domain {
		k = z.domain - 1
	}
	return record.Key(k)
}

// Concentration reports the fraction of keys that fall in the densest
// contiguous prefix covering `fraction` of the domain. For SKW with θ=0.8
// the paper quotes ~0.77 at fraction 0.2 (the hot region is the domain
// prefix, because bucket weights decrease with the index).
func Concentration(records []record.Record, fraction float64) float64 {
	if len(records) == 0 {
		return 0
	}
	cut := record.Key(fraction * float64(record.KeyDomain))
	in := 0
	for i := range records {
		if records[i].Key < cut {
			in++
		}
	}
	return float64(in) / float64(len(records))
}

// Queries generates count uniformly placed range queries whose extent is
// the given fraction of the key domain.
func Queries(count int, extent float64, seed int64) []record.Range {
	rng := rand.New(rand.NewSource(seed))
	width := record.Key(extent * float64(record.KeyDomain))
	if width < 1 {
		width = 1
	}
	qs := make([]record.Range, count)
	for i := range qs {
		lo := record.Key(rng.Intn(record.KeyDomain - int(width)))
		qs[i] = record.Range{Lo: lo, Hi: lo + width}
	}
	return qs
}
