package main

import (
	"context"
	"fmt"
	"os"
	"time"
)

// curveRungs are the offered loads of the throughput-vs-latency curve, as
// shares of the workload's frozen closed-loop peak (twice its frozen open
// rate, which was set at half the peak).
var curveRungs = []float64{0.25, 0.50, 0.75, 0.90}

// curvePoint is one rung of one workload's curve.
type curvePoint struct {
	Share      float64 `json:"share_of_peak"`
	OfferedOps float64 `json:"offered_op_s"`
	DoneOps    float64 `json:"completed_op_s"`
	P50ms      float64 `json:"lat_p50_ms"`
	P99ms      float64 `json:"lat_p99_ms"`
	Failed     int     `json:"failed"`
	Growing    bool    `json:"backlog_growing"`
	OK         bool    `json:"ok"`
}

type curveReport struct {
	Environment environment             `json:"environment"`
	Curves      map[string][]curvePoint `json:"curves"`
	// MaxRateOK is, per workload, the highest offered rate whose p99 stays
	// within 5x the lowest rung's p50 with no failures and no growing
	// backlog (0 if none does).
	MaxRateOK map[string]float64 `json:"curve.max_rate_ok"`
}

// backlogGrowing reports whether latency kept climbing through an
// open-loop phase: the second half's median above twice the first
// half's. A system keeping up shows the same median in both halves.
func backlogGrowing(lat []float64) bool {
	if len(lat) < 4 {
		return false
	}
	half := len(lat) / 2
	return median(lat[half:]) > 2*median(lat[:half])
}

// runCurve replays each read workload's open phase at each rung against
// one fresh deployment per workload. It is a reporting mode: ungated and
// not part of the default command.
func runCurve(base runConfig, out string) error {
	rep := curveReport{
		Environment: describeEnvironment(base),
		Curves:      map[string][]curvePoint{},
		MaxRateOK:   map[string]float64{},
	}
	ds, err := makeDataset(base.n, base.datasetSeed)
	if err != nil {
		return err
	}
	warmDur := time.Duration(float64(base.measure) * warmShare)
	openDur := (base.measure - warmDur) / time.Duration(len(curveRungs))
	for _, spec := range workloads {
		if spec.kind == opInsert {
			continue
		}
		cfg := base
		cfg.spec = spec
		points, err := curveOf(&cfg, ds, warmDur, openDur)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		rep.Curves[spec.name] = points
		fmt.Printf("%s (peak %.0f op/s)\n  %6s %10s %10s %10s %10s %7s %s\n", spec.name, 2*spec.openRate,
			"share", "offered", "completed", "p50_ms", "p99_ms", "failed", "")
		for _, p := range points {
			note := ""
			if p.Growing {
				note = "backlog growing"
			}
			if p.OK {
				rep.MaxRateOK[spec.name] = p.OfferedOps
			}
			fmt.Printf("  %6.2f %10.0f %10.1f %10.3f %10.3f %7d %s\n", p.Share, p.OfferedOps, p.DoneOps, p.P50ms, p.P99ms, p.Failed, note)
		}
		fmt.Printf("  curve.max_rate_ok %.0f op/s\n", rep.MaxRateOK[spec.name])
	}
	return writeReport(out, rep)
}

func curveOf(cfg *runConfig, ds *dataset, warmDur, openDur time.Duration) ([]curvePoint, error) {
	r := &runner{cfg: cfg, ds: ds, oracle: newOracle(ds.records)}
	if _, err := r.launches(1, true); err != nil {
		return nil, err
	}
	defer r.dep.close()
	defer r.disconnect()
	if err := r.connect(); err != nil {
		return nil, err
	}
	ctx := r.dep.alive()
	g := newGenerator(cfg.seed, streamWarm, 0, cfg.spec, ds.plan.Span(0))
	closedLoop(ctx, warmDur, 1, func(int) request { return g.next() }, r.do)

	var points []curvePoint
	for _, share := range curveRungs {
		rate := share * 2 * cfg.spec.openRate
		arrivals, reqs := r.generate(cfg.spec, streamOpenArrivals, streamOpen, 0, rate, openDur)
		p := openLoop(ctx, openDur, arrivals, reqs, 2, r.do)
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
		if p.firstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s at %.0f op/s: first failure: %v\n", cfg.spec.name, rate, p.firstErr)
		}
		p99, _, _ := tail(p.lat, 0.99)
		pt := curvePoint{
			Share: share, OfferedOps: rate, DoneOps: p.opsPerSec(),
			P50ms: median(p.lat), P99ms: p99, Failed: p.failed, Growing: backlogGrowing(p.lat),
		}
		pt.OK = pt.Failed == 0 && !pt.Growing && pt.P99ms <= 5*firstP50(points, pt)
		points = append(points, pt)
	}
	return points, nil
}

// firstP50 is the lowest rung's median latency: the yardstick every
// rung's p99 is held against.
func firstP50(points []curvePoint, current curvePoint) float64 {
	if len(points) == 0 {
		return current.P50ms
	}
	return points[0].P50ms
}
