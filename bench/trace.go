package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of one traced request. Spans of a request
// share Trace; Parent names the span that caused this one (0 for the
// root). Times are nanoseconds on the tracer's monotonic clock.
//
// The benchmark records spans from its own files, around calls into each
// layer's public functions. Where the call really happens inside the
// parent's interval (the client-side steps of a request) the span is
// measured in place. Where it happens inside another goroutine or
// process (the primary's serve call under a routed request, the index
// descent under that) the harness cannot wrap it from outside, so it
// REPLAYS the same request one layer lower right after the parent
// finished and rebases the measured duration into the parent's interval;
// such spans carry Paired. A Ref span is a stand-alone reference timing
// that belongs to no parent and takes no part in self-time arithmetic.
type span struct {
	Trace  int    `json:"trace_id"`
	ID     int    `json:"span"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Pages  int64  `json:"pages,omitempty"`
	Units  int64  `json:"units,omitempty"` // records or ops the span handled
	Paired bool   `json:"paired,omitempty"`
	Ref    bool   `json:"ref,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add appends a span measured in place and returns its id.
func (t *tracer) add(trace, parent int, name, layer string, start, end int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Layer: layer, Start: start, End: end})
	return id
}

// addPaired appends a replayed span of the given duration, rebased to
// begin `offset` nanoseconds into its parent.
func (t *tracer) addPaired(parent int, name, layer string, offset, dur int64) int {
	p := t.spans[parent-1]
	id := t.add(p.Trace, parent, name, layer, p.Start+offset, p.Start+offset+dur)
	t.spans[id-1].Paired = true
	return id
}

// addRef appends a stand-alone reference timing.
func (t *tracer) addRef(trace int, name, layer string, dur int64) int {
	now := t.now()
	id := t.add(trace, 0, name, layer, now-dur, now)
	t.spans[id-1].Ref = true
	return id
}

func (t *tracer) at(id int) *span { return &t.spans[id-1] }

// selfTimes returns, per span id, the span's duration minus the part of
// the timeline its children cover. Children are taken as recorded — not
// clipped to the parent — so a replayed child that ran longer than its
// parent yields a negative self time instead of hiding the disagreement.
// Overlapping children (parallel sub-requests) are counted once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(children[s.ID])
	}
	return self
}

// covered is the length of the union of the spans' intervals.
func covered(cs []span) int64 {
	if len(cs) == 0 {
		return 0
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var total int64
	curLo, curHi := cs[0].Start, cs[0].End
	for _, c := range cs[1:] {
		if c.Start > curHi {
			total += curHi - curLo
			curLo, curHi = c.Start, c.End
			continue
		}
		if c.End > curHi {
			curHi = c.End
		}
	}
	return total + curHi - curLo
}

// perTrace sums f over the spans called name within each trace and
// returns one value per trace that has such a span, in trace order.
func perTrace(spans []span, name string, f func(span) float64) []float64 {
	sums := make(map[int]float64)
	var order []int
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if _, seen := sums[s.Trace]; !seen {
			order = append(order, s.Trace)
		}
		sums[s.Trace] += f(s)
	}
	out := make([]float64, len(order))
	for i, tr := range order {
		out[i] = sums[tr]
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
