package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// runSim runs the oltp or dss workload: repetitions of one simulation on
// config.Default() at the run's seed, built by the benchmark's own harness.
func runSim(o options) (*result, error) {
	heap := startHeapSampler()
	defer heap.close()
	chk := newChecker(o)
	cfg := config.Default()
	reps := func(d time.Duration, sp *spans) []rep {
		var out []rep
		for start, n := time.Now(), 0; n == 0 || time.Since(start) < d; n++ {
			r, err := simRep(o.workload, cfg, o.seed, o.scale, sp, heap)
			chk.record(o.seed, r, err)
			if err == nil {
				out = append(out, r)
			}
		}
		return out
	}
	// The first repetition, untimed, runs at the default seed: it lets
	// the process warm up and checks the stored reference digest.
	r, err := simRep(o.workload, cfg, defaultSeed, o.scale, nil, heap)
	chk.record(defaultSeed, r, err)
	res := &result{Metrics: map[string]metric{}}
	if !o.trace {
		setup, err := timeSetup(func() (time.Duration, error) {
			return timeBuild(o.workload, cfg, o.seed, o.scale)
		})
		if err != nil {
			return nil, err
		}
		plain := reps(o.seconds, nil)
		if len(plain) == 0 {
			return nil, errors.New("no repetition succeeded")
		}
		endToEnd(plain, res.Metrics)
		res.Metrics["setup_s"] = metric{setup, "s"}
		return chk.result(res), nil
	}

	start := time.Now()
	plain := reps(o.seconds/2, nil)
	plainWall := time.Since(start)
	sp := newSpans()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced := reps(o.seconds/2, sp)
	pprof.StopCPUProfile()
	if len(plain) == 0 || len(traced) == 0 {
		return nil, errors.New("no repetition succeeded")
	}
	sp.write(os.Stderr)
	m := res.Metrics
	if err := selfFracs(prof.Bytes(), m); err != nil {
		return nil, err
	}
	m["trace.overhead_frac"] = metric{overhead(plain, traced), "ratio"}
	spanMetrics(sp, traced, m)
	walls, perCycle, perMiss := make([]float64, len(plain)), make([]float64, len(plain)), make([]float64, len(plain))
	var sumWall float64
	for i, r := range plain {
		walls[i] = r.wall.Seconds()
		sumWall += walls[i]
		perCycle[i] = float64(r.run.Nanoseconds()) / float64(r.cycles)
		perMiss[i] = float64(r.run.Nanoseconds()) / float64(max(r.reports[0].L2Misses, 1))
	}
	m["core.ns_per_sim_cycle"] = metric{median(perCycle), "ns"}
	m["core.ns_per_l2_miss"] = metric{median(perMiss), "ns"}
	// oltp and dss bypass the runner pool: their "points" are the
	// benchmark's own repetitions, run one at a time.
	runnerMetrics(walls, sumWall, plainWall.Seconds(), m)
	simCounts(plain[0].reports, m)
	streams, err := capture(o.workload, cfg.Nodes, o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	if err := microbench(cfg, cfg, streams, m); err != nil {
		return nil, err
	}
	return chk.result(res), nil
}

// fig2aConfigs are the machines of Figure 2(a) in the figure's order:
// in-order, then out-of-order, each at issue widths 1, 2, 4 and 8.
func fig2aConfigs() []config.Config {
	var out []config.Config
	for _, inorder := range []bool{true, false} {
		for _, w := range []int{1, 2, 4, 8} {
			cfg := config.Default()
			cfg.InOrder = inorder
			cfg.IssueWidth = w
			out = append(out, cfg)
		}
	}
	return out
}

// runFig2a regenerates Figure 2(a) through experiments.Fig2a and its runner
// pool, with one worker per CPU. The figure's workload seed is its own.
func runFig2a(o options) (*result, error) {
	heap := startHeapSampler()
	defer heap.close()
	chk := newChecker(o)
	sc := o.scale
	sc.Parallel = min(runtime.NumCPU(), len(fig2aConfigs()))
	reps := func(d time.Duration, sp *spans) []rep {
		var out []rep
		for start, n := time.Now(), 0; n == 0 || time.Since(start) < d; n++ {
			r, err := figRep(sc, sp, heap)
			chk.record(defaultSeed, r, err)
			if err == nil {
				out = append(out, r)
			}
		}
		return out
	}
	res := &result{Metrics: map[string]metric{}}
	m := res.Metrics
	if !o.trace {
		// Experiments.Fig2a builds its points' workloads and machines
		// inside the pool, so set-up is timed on the same eight builds.
		setup, err := timeSetup(func() (time.Duration, error) {
			var sum time.Duration
			for _, cfg := range fig2aConfigs() {
				d, err := timeBuild("oltp", cfg, defaultSeed, sc)
				if err != nil {
					return 0, err
				}
				sum += d
			}
			return sum, nil
		})
		if err != nil {
			return nil, err
		}
		plain := reps(o.seconds, nil)
		if len(plain) == 0 {
			return nil, errors.New("no repetition succeeded")
		}
		endToEnd(plain, m)
		m["setup_s"] = metric{setup, "s"}
		return chk.result(res), nil
	}

	plain := reps(o.seconds/2, nil)
	sp := newSpans()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	traced := reps(o.seconds/2, sp)
	pprof.StopCPUProfile()
	if len(plain) == 0 || len(traced) == 0 {
		return nil, errors.New("no repetition succeeded")
	}
	// Stream.Next cannot be wrapped inside the figure, so the span metrics
	// come from the figure's first point (in-order, 1-way) rebuilt by the
	// harness; its Report must equal the figure's.
	point, err := simRep("oltp", fig2aConfigs()[0], defaultSeed, sc, sp, heap)
	chk.attempted++
	if err == nil {
		want := *plain[0].reports[0]
		want.Label = runLabel
		var d string
		if d, err = digest([]*stats.Report{&want}); err == nil && d != point.digest {
			err = fmt.Errorf("the rebuilt report of point %s differs from the figure's", plain[0].reports[0].Label)
		}
	}
	if err != nil {
		chk.fail("%v", err)
		return chk.result(res), nil
	}
	sp.write(os.Stderr)
	if err := selfFracs(prof.Bytes(), m); err != nil {
		return nil, err
	}
	m["trace.overhead_frac"] = metric{overhead(plain, traced), "ratio"}
	spanMetrics(sp, []rep{point}, m)
	var points []float64
	var figWall float64
	var cycles, l2 uint64
	for _, r := range plain {
		points = append(points, r.points...)
		figWall += r.wall.Seconds()
		for _, rp := range r.reports {
			cycles += rp.Cycles
			l2 += rp.L2Misses
		}
	}
	var pointSum float64
	for _, p := range points {
		pointSum += p
	}
	m["core.ns_per_sim_cycle"] = metric{pointSum * 1e9 / float64(cycles), "ns"}
	m["core.ns_per_l2_miss"] = metric{pointSum * 1e9 / float64(max(l2, 1)), "ns"}
	runnerMetrics(points, pointSum, float64(sc.Parallel)*figWall, m)
	simCounts(plain[0].reports, m)
	streams, err := capture("oltp", config.Default().Nodes, defaultSeed, sc)
	if err != nil {
		return nil, err
	}
	if err := microbench(config.Default(), fig2aConfigs()[0], streams, m); err != nil {
		return nil, err
	}
	return chk.result(res), nil
}

// figRep regenerates the figure once.
func figRep(sc experiments.Scale, sp *spans, heap *heapSampler) (rep, error) {
	runtime.GC()
	heap.reset()
	var r rep
	var log pointLog
	sc.Logger = slog.New(&log)
	id := sp.begin("experiments.Fig2a", -1)
	t0, c0 := time.Now(), cpuTime()
	res, err := experiments.Fig2a(sc)
	r.run, r.cpu = time.Since(t0), cpuTime()-c0
	r.wall = r.run
	sp.end(id)
	r.peakHeap = heap.peak()
	if err != nil {
		return r, fmt.Errorf("fig2a: %w", err)
	}
	r.reports = res.Reports
	r.points = log.seconds
	if sc.Parallel > 1 && len(r.points) != len(r.reports) {
		return r, fmt.Errorf("fig2a: the runner pool logged %d of %d points", len(r.points), len(r.reports))
	}
	for _, rp := range res.Reports {
		r.instr += rp.Instructions
		r.cycles += rp.Cycles
	}
	r.digest, err = digest(r.reports)
	return r, err
}

// pointLog is a slog.Handler keeping the host seconds of each point from
// the runner pool's "point done" records.
type pointLog struct {
	mu      sync.Mutex
	seconds []float64
}

func (l *pointLog) Enabled(context.Context, slog.Level) bool { return true }
func (l *pointLog) WithAttrs([]slog.Attr) slog.Handler       { return l }
func (l *pointLog) WithGroup(string) slog.Handler            { return l }

func (l *pointLog) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "point done" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "seconds" && a.Value.Kind() == slog.KindFloat64 {
			l.mu.Lock()
			l.seconds = append(l.seconds, a.Value.Float64())
			l.mu.Unlock()
			return false
		}
		return true
	})
	return nil
}

// setupSamples is how many times a run times its set-up; setup_s is the
// median.
const setupSamples = 21

// timeSetup takes setupSamples set-up times from sample and returns their
// median in seconds.
func timeSetup(sample func() (time.Duration, error)) (float64, error) {
	t := make([]float64, setupSamples)
	for i := range t {
		d, err := sample()
		if err != nil {
			return 0, err
		}
		t[i] = d.Seconds()
	}
	return median(t), nil
}

// timeBuild returns the CPU time of one build of workload on machine cfg,
// after collecting the garbage of earlier builds so that every build starts
// from the same heap.
func timeBuild(workload string, cfg config.Config, seed uint64, sc experiments.Scale) (time.Duration, error) {
	runtime.GC()
	c0 := cpuTime()
	_, err := build(workload, cfg, seed, sc, nil, nil, -1)
	return cpuTime() - c0, err
}

// endToEnd sets sim_minstr_per_s and peak_heap_mb from untraced
// repetitions, as medians over them.
func endToEnd(reps []rep, m map[string]metric) {
	heap := make([]float64, len(reps))
	for i, r := range reps {
		heap[i] = float64(r.peakHeap) / 1e6
	}
	m["sim_minstr_per_s"] = metric{throughput(reps) / 1e6, "Minstr/s"}
	m["peak_heap_mb"] = metric{median(heap), "MB"}
}

// throughput is the median over repetitions of instructions per CPU second.
func throughput(reps []rep) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = float64(r.instr) / r.cpu.Seconds()
	}
	return median(v)
}

// overhead is the share of throughput the traced repetitions lost against
// the untraced ones.
func overhead(plain, traced []rep) float64 { return 1 - throughput(traced)/throughput(plain) }

// spanMetrics sets the metrics taken from the spans of simulations whose
// streams were wrapped.
func spanMetrics(sp *spans, reps []rep, m map[string]metric) {
	m["workload.next_ns"] = metric{float64(sp.nextNS) / float64(max(sp.nextCalls, 1)), "ns"}
	var self time.Duration
	var instr uint64
	for _, r := range reps {
		self += r.run - time.Duration(r.nextNS)
		instr += r.instr
	}
	m["core.run_self_ns_per_instr"] = metric{float64(self.Nanoseconds()) / float64(instr), "ns"}
}

// runnerMetrics sets the per-point wall-time metrics: points holds each
// point's host seconds, capacity the workers × wall seconds they ran in.
func runnerMetrics(points []float64, sum, capacity float64, m map[string]metric) {
	m["runner.point_s_p50"] = metric{median(points), "s"}
	m["runner.point_s_max"] = metric{maxOf(points), "s"}
	m["runner.pool_util"] = metric{sum / capacity, "ratio"}
}

// simCounts sets the simulated-work counts of the reports; they are
// deterministic and repeat exactly.
func simCounts(reports []*stats.Report, m map[string]metric) {
	var instr, cycles, l1i, l1d, l2, latch uint64
	var dirty float64
	for _, r := range reports {
		instr += r.Instructions
		cycles += r.Cycles
		l1i += r.L1IMisses
		l1d += r.L1DMisses
		l2 += r.L2Misses
		latch += r.LatchAcquires
		dirty += r.DirtyFraction * float64(r.L2Misses)
	}
	perK := func(n uint64) float64 { return 1000 * float64(n) / float64(instr) }
	m["sim.cycles_per_kinstr"] = metric{perK(cycles), "count"}
	m["sim.l1i_mpki"] = metric{perK(l1i), "count"}
	m["sim.l1d_mpki"] = metric{perK(l1d), "count"}
	m["sim.l2_mpki"] = metric{perK(l2), "count"}
	m["sim.dirty_frac"] = metric{dirty / float64(max(l2, 1)), "count"}
	m["sim.latch_acquires_pki"] = metric{perK(latch), "count"}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
