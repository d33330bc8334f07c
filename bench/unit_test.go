package main

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"sae/internal/record"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := quantileSorted(sorted(xs), c.q); got != c.want {
			t.Errorf("q=%v: got %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing must be NaN, not a number someone might report")
	}
	if xs[0] != 100 {
		t.Error("sorted must not reorder its argument")
	}
}

// A percentile is supported only with at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		q      float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{1100, 0.99, 11, true},
		{100, 0.99, 1, false},
		{20, 0.5, 10, true},
		{19, 0.5, 9, false},
		{0, 0.99, 0, false},
	} {
		_, nb, ok := tail(mk(c.n), c.q)
		if nb != c.beyond || ok != c.ok {
			t.Errorf("n=%d q=%v: %d beyond, ok=%v; want %d, %v", c.n, c.q, nb, ok, c.beyond, c.ok)
		}
	}
}

func TestCalmestPicksLowestShare(t *testing.T) {
	scores := []float64{5, 1, 4, 2, 3, 6}
	got := calmest(scores, 1.0/3)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("calmest third of %v = %v, want [1 3]", scores, got)
	}
	if n := len(calmest([]float64{1, 2, 3, 4}, 1.0/3)); n != 2 {
		t.Errorf("a third of 4 slices rounds up to 2, got %d", n)
	}
}

// Span self time: nested, overlapping, zero-length and overrunning
// children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100}, // root
		{ID: 2, Parent: 1, Start: 10, End: 40}, // child
		{ID: 3, Parent: 2, Start: 15, End: 25}, // grandchild, nested in 2
		{ID: 4, Parent: 1, Start: 30, End: 60}, // overlaps 2 by 10
		{ID: 5, Parent: 1, Start: 70, End: 70}, // zero length
		{ID: 6, Parent: 1, Start: 80, End: 90}, // disjoint
		{ID: 7, Parent: 6, Start: 80, End: 95}, // replayed child that overran its parent
		{ID: 8, Parent: 0, Start: 0, End: 7, Ref: true},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (50 + 0 + 10), // children cover [10,60] once, plus [80,90]
		2: 30 - 10,
		3: 10,
		4: 30,
		5: 0,
		6: 10 - 15, // negative: the disagreement is kept, not clipped away
		7: 15,
		8: 7,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	// The tree's self times add back up to the root, by construction, when
	// no child overruns and none overlap.
	clean := []span{
		{ID: 1, Start: 0, End: 50},
		{ID: 2, Parent: 1, Start: 5, End: 20},
		{ID: 3, Parent: 1, Start: 20, End: 45},
		{ID: 4, Parent: 3, Start: 22, End: 30},
	}
	var sum int64
	for _, v := range selfTimes(clean) {
		sum += v
	}
	if sum != 50 {
		t.Errorf("self times sum to %d, want the root's 50", sum)
	}
}

func TestPerTraceSumsSameNameSpans(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "wire.decode", Start: 0, End: 3},
		{Trace: 1, ID: 2, Name: "wire.decode", Start: 5, End: 9},
		{Trace: 2, ID: 3, Name: "wire.decode", Start: 0, End: 2},
		{Trace: 2, ID: 4, Name: "other", Start: 0, End: 50},
	}
	got := perTrace(spans, "wire.decode", func(s span) float64 { return float64(s.dur()) })
	if len(got) != 2 || got[0] != 7 || got[1] != 2 {
		t.Errorf("got %v, want [7 2]", got)
	}
}

// The coordinated-omission check. A server that handles one request at a
// time stalls for 50 ms. An open loop keeps sending on schedule and times
// each request from when it was DUE, so every request due during the
// stall carries its share of the wait; a generator that waited for the
// stalled answer before sending the next would record one slow request
// and a clean p99.
func TestOpenLoopChargesAStallToEveryRequestBehindIt(t *testing.T) {
	const (
		rate      = 1000.0
		dur       = 400 * time.Millisecond
		stallFrom = 100 * time.Millisecond
		stall     = 50 * time.Millisecond
	)
	var arrivals []time.Duration
	for at := time.Duration(0); at < dur; at += time.Duration(float64(time.Second) / rate) {
		arrivals = append(arrivals, at)
	}
	reqs := make([]request, len(arrivals))

	var server sync.Mutex // one request at a time
	var stalled sync.Once
	var start time.Time
	do := func(ctx context.Context, caller int, r request) (uint8, error) {
		server.Lock()
		defer server.Unlock()
		if time.Since(start) >= stallFrom {
			stalled.Do(func() { time.Sleep(stall) })
		}
		return 0, nil
	}
	start = time.Now()
	p := openLoop(context.Background(), dur, arrivals, reqs, 2, do)
	if p.failed != 0 || len(p.lat) != len(arrivals) {
		t.Fatalf("%d of %d answered, %d failed", len(p.lat), len(arrivals), p.failed)
	}

	var during, before []float64
	for i, at := range p.at {
		switch {
		case at >= stallFrom && at < stallFrom+stall:
			during = append(during, p.lat[i])
		case at < stallFrom-10*time.Millisecond:
			before = append(before, p.lat[i])
		}
	}
	if len(during) < 40 {
		t.Fatalf("only %d requests were due during the stall; the schedule did not keep firing", len(during))
	}
	p99During, _, _ := tail(during, 0.99)
	if p99During < 30 {
		t.Errorf("p99 of requests due during a %v stall is %.1f ms; the stall was not charged to them", stall, p99During)
	}
	slow := 0
	for _, l := range during {
		if l > 10 {
			slow++
		}
	}
	if slow < len(during)/2 {
		t.Errorf("%d of %d requests due during the stall saw more than 10 ms; coordinated omission would show 1", slow, len(during))
	}
	if m := median(before); m > 5 {
		t.Errorf("median latency before the stall is %.1f ms; the fake server should answer at once", m)
	}
}

func TestClosedLoopCountsOnlyOpsInsideTheDeadline(t *testing.T) {
	do := func(ctx context.Context, caller int, r request) (uint8, error) {
		time.Sleep(10 * time.Millisecond)
		return tagOther, nil
	}
	p := closedLoop(context.Background(), 105*time.Millisecond, 2, func(int) request { return request{} }, do)
	if n := len(p.lat); n < 16 || n > 20 {
		t.Errorf("2 callers x 105 ms / 10 ms per op: %d ops counted, want about 20 and never the ones that ended late", n)
	}
	if p.failed != 0 || p.attempted != len(p.lat) {
		t.Errorf("attempted %d, completed %d, failed %d", p.attempted, len(p.lat), p.failed)
	}
}

func TestGeneratorIsDeterministicAndMixesWritesThreeToOne(t *testing.T) {
	spec, _ := findWorkload("write_mixed")
	span := record.Range{Lo: 0, Hi: 4_000_000}
	a := newGenerator(7, streamClosed, 0, spec, span)
	b := newGenerator(7, streamClosed, 0, spec, span)
	other := newGenerator(8, streamClosed, 0, spec, span)
	deletes, differs := 0, false
	for i := 0; i < 400; i++ {
		ra, rb, ro := a.next(), b.next(), other.next()
		if ra.kind != rb.kind || len(ra.keys) != batchSize {
			t.Fatalf("request %d differs under the same seed", i)
		}
		for k := range ra.keys {
			if ra.keys[k] != rb.keys[k] {
				t.Fatalf("request %d key %d differs under the same seed", i, k)
			}
			if !span.Contains(ra.keys[k]) {
				t.Fatalf("key %d outside shard 0's span", ra.keys[k])
			}
			differs = differs || ra.keys[k] != ro.keys[k]
		}
		if ra.kind == opDelete {
			deletes++
		}
	}
	if deletes != 100 {
		t.Errorf("%d of 400 batches are deletes, want exactly 100", deletes)
	}
	if !differs {
		t.Error("another seed produced the same keys")
	}
	rs, _ := findWorkload("range_short")
	g := newGenerator(1, streamOpen, 0, rs, span)
	for i := 0; i < 100; i++ {
		if q := g.next().q; q.Hi-q.Lo != 1000 || q.Hi >= record.KeyDomain {
			t.Fatalf("range_short query %v is not 0.01%% of the domain", q)
		}
	}
}

func TestPoissonArrivalsKeepTheirRate(t *testing.T) {
	arr := poissonArrivals(streamRNG(3, streamOpenArrivals, 0), 2000, 5*time.Second)
	if n := len(arr); n < 9700 || n > 10300 {
		t.Errorf("%d arrivals in 5 s at 2000/s", n)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			t.Fatal("arrivals out of order")
		}
	}
}
