package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload/dss"
	"repro/internal/workload/oltp"
)

// runLabel labels every Report the benchmark produces, so the self-test can
// compare its bytes with experiments.RunOLTP/RunDSS under the same label.
const runLabel = "bench"

// machine is one repetition's simulated machine and workload.
type machine struct {
	sys   *core.System
	ctxs  []*cpu.Context
	opt   core.RunOptions
	check func() error // workload checks after a successful Run
}

// generator is one workload's instruction source: its process count, each
// process's stream, the warm-up budget and the checks to run after a
// successful Run.
type generator struct {
	procs  int
	stream func(int) trace.Stream
	warmup uint64
	check  func() error
}

// newGenerator builds workload ("oltp" or "dss") for a machine of nodes
// nodes from the public constructors, with the settings experiments.RunOLTP
// and RunDSS use.
func newGenerator(workload string, nodes int, seed uint64, sc experiments.Scale) (generator, error) {
	switch workload {
	case "oltp":
		wcfg := oltp.DefaultConfig(nodes)
		wcfg.TransactionsPerProcess = sc.OLTPTransactions + sc.OLTPWarmupTx
		wcfg.Hints = oltp.HintNone
		wcfg.Seed = seed
		w := oltp.New(wcfg)
		return generator{
			procs:  wcfg.Processes,
			stream: w.Stream,
			warmup: uint64(sc.OLTPWarmupTx) * uint64(wcfg.Processes) * w.ApproxInstrPerTx(),
			check: func() error {
				if err := w.Err(); err != nil {
					return fmt.Errorf("oltp workload failed: %w", err)
				}
				return w.TPCB().CheckConsistency()
			},
		}, nil
	case "dss":
		wcfg := dss.DefaultConfig(nodes)
		wcfg.RowsPerProcess = sc.DSSRows
		wcfg.Seed = seed
		w := dss.New(wcfg)
		return generator{
			procs:  wcfg.Processes,
			stream: w.Stream,
			warmup: uint64(wcfg.Processes) * w.ApproxInstrPerProcess() * 3 / 10,
			check:  func() error { return nil },
		}, nil
	}
	return generator{}, fmt.Errorf("unknown simulated workload %q", workload)
}

// build constructs workload on machine cfg in the order experiments.RunOLTP
// and RunDSS use, so that its Report is byte-identical to theirs. wrap,
// when non-nil, wraps each process's stream before AddProcess; sp, when
// non-nil, records a span around each constructor call under parent.
func build(workload string, cfg config.Config, seed uint64, sc experiments.Scale, wrap func(trace.Stream) trace.Stream, sp *spans, parent int) (*machine, error) {
	id := sp.begin(workload+".New", parent)
	g, err := newGenerator(workload, cfg.Nodes, seed, sc)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	m := &machine{
		opt:   core.RunOptions{Label: runLabel, WarmupInstructions: g.warmup, MaxCycles: sc.MaxCycles},
		check: g.check,
	}
	id = sp.begin("core.NewSystem", parent)
	m.sys, err = core.NewSystem(cfg)
	sp.end(id)
	if err != nil {
		return nil, err
	}
	id = sp.begin("AddProcess", parent)
	for p := 0; p < g.procs; p++ {
		s := g.stream(p)
		if wrap != nil {
			s = wrap(s)
		}
		m.ctxs = append(m.ctxs, m.sys.AddProcess(p%cfg.Nodes, s))
	}
	sp.end(id)
	return m, nil
}

// cpuTime returns the CPU time the process has used, all threads, user and
// system. The kernel leaves out time the hypervisor took from the VM
// (steal), which on a shared host swings wall-clock throughput far more
// than the simulator's own cost.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// getrusage(RUSAGE_SELF) fails only on a bad pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rep is one measured repetition: a simulation (oltp, dss) or a whole
// figure (fig2a).
type rep struct {
	run      time.Duration // System.Run, or the whole experiments.Fig2a call
	cpu      time.Duration // CPU time of the process during run
	wall     time.Duration // the repetition from set-up through checks
	instr    uint64        // instructions retired, warm-up included
	cycles   uint64        // simulated cycles
	reports  []*stats.Report
	digest   string
	peakHeap uint64
	points   []float64 // fig2a: host seconds of each figure point
	nextNS   int64     // traced: host ns inside Stream.Next during Run
}

// simRep builds and runs one simulation. The garbage of earlier
// repetitions is collected first, untimed, so that the heap peak does not
// depend on when the collector last ran.
func simRep(workload string, cfg config.Config, seed uint64, sc experiments.Scale, sp *spans, heap *heapSampler) (rep, error) {
	runtime.GC()
	heap.reset()
	var r rep
	var wrap func(trace.Stream) trace.Stream
	if sp != nil {
		wrap = sp.wrap
	}
	root := sp.begin("repetition", -1)
	defer sp.end(root)
	t0 := time.Now()
	m, err := build(workload, cfg, seed, sc, wrap, sp, root)
	if err != nil {
		return r, err
	}
	next0 := sp.nextTotal()
	id := sp.begin("System.Run", root)
	t1, c1 := time.Now(), cpuTime()
	report, err := m.sys.Run(m.opt)
	r.run, r.cpu = time.Since(t1), cpuTime()-c1
	sp.end(id)
	r.nextNS = sp.nextTotal() - next0
	// A collection while the machine is still reachable makes the live
	// heap count it even when Run itself allocated too little to collect.
	runtime.GC()
	r.peakHeap = heap.peak()
	runtime.KeepAlive(m)
	if err != nil {
		return r, fmt.Errorf("%s run: %w", workload, err)
	}
	if err := m.check(); err != nil {
		return r, err
	}
	r.wall = time.Since(t0)
	for _, c := range m.ctxs {
		r.instr += c.Retired
	}
	r.cycles = m.sys.Cycle()
	r.reports = []*stats.Report{report}
	r.digest, err = digest(r.reports)
	return r, err
}

// digest is the SHA-256 of the reports' canonical JSON encoding: any change
// to a simulated statistic changes it.
func digest(reports []*stats.Report) (string, error) {
	b, err := json.Marshal(reports)
	if err != nil {
		return "", fmt.Errorf("encode report: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// checker counts operations (repetitions) and failures. A repetition fails
// when it returns an error (Run, the workload's Err, TPC-B consistency),
// when its digest differs from the first repetition's at the same seed, or
// when, at the default seed, it differs from the stored reference.
type checker struct {
	workload  string
	reference string
	first     map[uint64]string
	attempted int
	failed    int
}

func newChecker(o options) *checker {
	return &checker{workload: o.workload, reference: o.reference[o.workload], first: map[uint64]string{}}
}

func (c *checker) record(seed uint64, r rep, err error) {
	c.attempted++
	switch {
	case err != nil:
		c.fail("seed %d: %v", seed, err)
	case seed == defaultSeed && c.reference != "" && r.digest != c.reference:
		c.fail("seed %d: report digest %s differs from the reference %s", seed, r.digest, c.reference)
	case c.first[seed] == "":
		c.first[seed] = r.digest
		fmt.Fprintf(os.Stderr, "%s seed %d report digest %s\n", c.workload, seed, r.digest)
	case c.first[seed] != r.digest:
		c.fail("seed %d: report digest %s differs from the first repetition's %s", seed, r.digest, c.first[seed])
	}
}

// result fills in res's operation counts.
func (c *checker) result(res *result) *result {
	res.Attempted, res.Failed = c.attempted, c.failed
	res.Correct = c.failed == 0
	return res
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	fmt.Fprintf(os.Stderr, "%s FAILED: %s\n", c.workload, fmt.Sprintf(format, args...))
}

// heapSampler tracks the peak live Go heap: the heap the collector found
// reachable at the end of each collection. Garbage awaiting collection is
// left out, since how much of it piles up depends on when collections
// happen to run. One goroutine, which does no simulation work, samples it
// every few milliseconds.
type heapSampler struct {
	max  atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := liveHeap() // reused: the sampler must not allocate
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe(readBytes(s))
			}
		}
	}()
	return h
}

// close stops the sampler and waits for its goroutine to end.
func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

func liveHeap() []metrics.Sample { return []metrics.Sample{{Name: "/gc/heap/live:bytes"}} }

func readBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (h *heapSampler) observe(v uint64) {
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// reset starts a new peak from the current heap size.
func (h *heapSampler) reset() { h.max.Store(readBytes(liveHeap())) }

// peak returns the largest heap size seen since reset.
func (h *heapSampler) peak() uint64 {
	h.observe(readBytes(liveHeap()))
	return h.max.Load()
}
