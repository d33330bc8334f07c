package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Where a read's range lies relative to the shard seam. write_mixed
// writes only to shard 0, so reads tagged tagShard0 feel the writes and
// reads tagged tagOther are the within-run control.
const (
	tagShard0 uint8 = iota
	tagOther
	tagStraddle
)

// doFunc performs one request on the given caller's connection, checks
// the answer, and returns the request's seam tag. A non-nil error is a
// failed op: transport error, verification failure, stale read or oracle
// mismatch alike.
type doFunc func(ctx context.Context, caller int, r request) (tag uint8, err error)

// phase is what one timed phase observed.
type phase struct {
	dur       time.Duration
	attempted int
	failed    int
	firstErr  error
	// One entry per completed op: latency in ms and the op's seam tag.
	// Open-loop phases keep them in intended-send order and time latency
	// from the INTENDED send time, so a stall is charged to every request
	// queued behind it (no coordinated omission).
	lat []float64
	tag []uint8
	// Open loop only, parallel to lat: when each request was due, as an
	// offset from the phase's start, and how late the generator fired it.
	at     []time.Duration
	lateMs []float64
}

func (p *phase) opsPerSec() float64 { return float64(len(p.lat)) / p.dur.Seconds() }

// latWhere returns the latencies of ops carrying the given tag.
func (p *phase) latWhere(tag uint8) []float64 {
	var out []float64
	for i, t := range p.tag {
		if t == tag {
			out = append(out, p.lat[i])
		}
	}
	return out
}

// closedLoop runs `callers` synchronous callers for dur: each sends its
// next request only after the previous answer arrived. Ops that complete
// after the deadline are performed (the answer is still checked) but not
// counted, so ops/dur is the sustained completion rate.
func closedLoop(ctx context.Context, dur time.Duration, callers int, next func(caller int) request, do doFunc) *phase {
	type local struct {
		lat       []float64
		tag       []uint8
		attempted int
		failed    int
		firstErr  error
	}
	locals := make([]local, callers)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &locals[c]
			for ctx.Err() == nil {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				tag, err := do(ctx, c, next(c))
				done := time.Now()
				switch {
				case err != nil:
					l.attempted++
					l.failed++
					if l.firstErr == nil {
						l.firstErr = err
					}
				case done.After(deadline):
					return
				default:
					l.attempted++
					l.lat = append(l.lat, float64(done.Sub(t0))/1e6)
					l.tag = append(l.tag, tag)
				}
			}
		}(c)
	}
	wg.Wait()
	p := &phase{dur: dur}
	for i := range locals {
		p.attempted += locals[i].attempted
		p.failed += locals[i].failed
		if p.firstErr == nil {
			p.firstErr = locals[i].firstErr
		}
		p.lat = append(p.lat, locals[i].lat...)
		p.tag = append(p.tag, locals[i].tag...)
	}
	return p
}

// drainTimeout bounds how long an open-loop phase waits for stragglers
// after its last arrival; whatever is still unanswered then has failed.
const drainTimeout = 10 * time.Second

// openLoop fires reqs[i] at start+arrivals[i] whether or not earlier
// requests have been answered, each on connection i%conns, and waits for
// the answers. dur is the schedule's length (arrivals all fall inside
// it).
func openLoop(ctx context.Context, dur time.Duration, arrivals []time.Duration, reqs []request, conns int, do doFunc) *phase {
	n := len(arrivals)
	lat := make([]float64, n)
	tag := make([]uint8, n)
	late := make([]float64, n)
	errs := make([]error, n)
	answered := make([]atomic.Bool, n)
	var wg sync.WaitGroup

	opCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	fired := 0
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(arrivals[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		fired++
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			late[i] = float64(time.Since(due)) / 1e6
			t, err := do(opCtx, i%conns, reqs[i])
			lat[i] = float64(time.Since(due)) / 1e6
			tag[i], errs[i] = t, err
			answered[i].Store(true)
		}(i, due)
	}
	p := &phase{dur: dur, attempted: fired}
	if rest := time.Until(start.Add(dur)); rest > 0 && ctx.Err() == nil {
		time.Sleep(rest)
	}

	// A request that never answers must not hang the benchmark: after the
	// timeout its goroutine is abandoned (it ends when the connection is
	// closed at teardown) and the request counts as failed. answered[i]
	// publishes lat/tag/errs[i], so abandoned slots are never read.
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		cancel()
	}
	for i := 0; i < fired; i++ {
		if !answered[i].Load() || errs[i] != nil {
			p.failed++
			if p.firstErr == nil && errs[i] != nil {
				p.firstErr = errs[i]
			}
			continue
		}
		p.lat = append(p.lat, lat[i])
		p.tag = append(p.tag, tag[i])
		p.at = append(p.at, arrivals[i])
		p.lateMs = append(p.lateMs, late[i])
	}
	return p
}
