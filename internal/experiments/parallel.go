package experiments

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/runner"
	"repro/internal/stats"
)

// figPoint is one simulation of a multi-point figure: a label plus the
// closure that runs it under a (possibly per-point) Scale.
type figPoint struct {
	label string
	run   func(sc Scale) (*stats.Report, error)
}

// runPoints executes a figure's points and returns their reports in input
// order. Points run through the internal/runner worker pool with
// sc.Parallel workers (0 = min(GOMAXPROCS, number of points); 1 = serial).
// A figure with a Tracer attached always runs serially: the tracer is
// shared mutable state whose event order must stay deterministic. Each
// point builds its own core.System, so parallel execution is bit-identical
// to serial — the orchestration tests assert it.
//
// Errors keep serial semantics: the first failing point in input order is
// returned, regardless of completion order.
func runPoints(sc Scale, pts []figPoint) ([]*stats.Report, error) {
	workers := sc.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pts) {
		workers = len(pts)
	}
	if sc.Tracer != nil {
		workers = 1
	}
	if workers <= 1 {
		reports := make([]*stats.Report, 0, len(pts))
		for _, p := range pts {
			rep, err := p.run(sc)
			if err != nil {
				return nil, err
			}
			reports = append(reports, rep)
		}
		return reports, nil
	}

	reports := make([]*stats.Report, len(pts))
	errs := make([]error, len(pts))
	rpts := make([]runner.Point, len(pts))
	for i := range pts {
		i := i
		p := pts[i]
		rpts[i] = runner.Point{
			ID:        p.label,
			MaxCycles: sc.MaxCycles,
			Run: func(ctx context.Context, _ runner.Attempt) (any, error) {
				psc := sc
				psc.Context = ctx // pool deadline + sweep cancel (parent is sc.Context)
				rep, err := p.run(psc)
				reports[i], errs[i] = rep, err
				return rep, err
			},
		}
	}
	parent := sc.Context
	if parent == nil {
		parent = context.Background()
	}
	// Deterministic points gain nothing from retries; a failure is a real
	// result. No journal: figure points are cheap relative to sweep points
	// and the caller owns durability (cmd/sweep journals whole experiments).
	_, poolErr := runner.Run(parent, rpts, runner.Options{
		Workers:     workers,
		MaxAttempts: 1,
		Logger:      sc.Logger,
	})
	for i := range pts {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	if poolErr != nil {
		return nil, poolErr
	}
	for i := range pts {
		if reports[i] == nil {
			return nil, fmt.Errorf("experiments: point %q did not run", pts[i].label)
		}
	}
	return reports, nil
}
