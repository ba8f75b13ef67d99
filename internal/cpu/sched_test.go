package cpu

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/trace"
)

// schedMachine is a few RC cores sharing one memory system and lock table,
// each running a schedStream.
type schedMachine struct {
	cores []*Core
	ctxs  []*Context
}

func newSchedMachine(cfg config.Config, seed uint64, generic bool) *schedMachine {
	ms := memsys.MustNew(cfg)
	locks := newTestLocks()
	m := &schedMachine{}
	for n := 0; n < cfg.Nodes; n++ {
		c := New(cfg, n, ms.Node(n), locks)
		if generic {
			// Reference arm: the generic window walk for issue and NextEvent.
			c.schedOn = false
		}
		ctx := &Context{ID: n, Stream: trace.NewSliceStream(schedStream(seed + uint64(n)))}
		c.SwitchTo(ctx)
		m.cores = append(m.cores, c)
		m.ctxs = append(m.ctxs, ctx)
	}
	return m
}

// schedStream is one core's test stream: the fence-free scan kernel, on
// which the heap peek applies almost every cycle, then a randomStream
// (locks, barriers, shared data) whose ALU ops also read a second
// register and whose data accesses are folded onto 32 shared lines, so
// that speculative loads are often invalidated and roll the window back.
// Lock releases and barriers write a register too: their completion
// times change at the window head (or they retire before completing
// after a rollback), which their consumers must follow.
func schedStream(seed uint64) []trace.Instr {
	rng := rand.New(rand.NewPCG(seed, 3))
	ins := scanStream(seed, 150)
	for _, in := range randomStream(seed, 1500) {
		switch in.Op {
		case trace.OpIntALU, trace.OpFPALU:
			in.Src2 = uint8(rng.IntN(8))
		case trace.OpLoad, trace.OpStore:
			in.Addr = 0x10_0000 + in.Addr%2048
		case trace.OpLockRelease, trace.OpMemBar, trace.OpWriteBar:
			in.Dest = uint8(2 + rng.IntN(7))
		}
		ins = append(ins, in)
	}
	return ins
}

// tick advances every core one cycle and reports whether any still runs.
func (m *schedMachine) tick(cycle uint64) bool {
	running := false
	for _, c := range m.cores {
		c.Tick(cycle)
		if c.NeedsSwitch() {
			c.TakeContext(cycle)
		}
		if c.Context() != nil {
			running = true
		}
	}
	return running
}

// randomSchedConfig draws an out-of-order RC machine: widths 1-8, windows
// 16-128, plain/prefetch/speculative, every latch policy.
func randomSchedConfig(rng *rand.Rand) config.Config {
	cfg := config.Default()
	cfg.Nodes = 1 + rng.IntN(3)
	cfg.Consistency = config.RC
	cfg.IssueWidth = 1 + rng.IntN(8)
	cfg.WindowSize = 16 + rng.IntN(113)
	cfg.MemQueueSize = cfg.WindowSize / 2
	cfg.ConsistencyOpts = []config.ConsistencyImpl{
		config.ImplPlain, config.ImplPrefetch, config.ImplSpeculative,
	}[rng.IntN(3)]
	cfg.LatchPolicy = []config.LatchPolicy{
		config.LatchPlain, config.LatchHints, config.LatchHTM,
	}[rng.IntN(3)]
	return cfg
}

// TestSchedulerNextEventOracle checks the heap-backed NextEvent against the
// window walk it replaces: on every cycle of randomized out-of-order RC
// machines, wherever the peek applies, it must return exactly the walk's
// value. Lock acquires route cycles through the generic walk in between,
// and speculative violations roll the window back. Periodically each core
// is snapshotted and restored in place, and the scheduler rebuilt from the
// window must return the same value it did before.
func TestSchedulerNextEventOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(20261017, 12))
	trials := 24
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		cfg := randomSchedConfig(rng)
		m := newSchedMachine(cfg, rng.Uint64(), false)
		var peeks, restores, rollbacks uint64
		cycle := uint64(1)
		for ; m.tick(cycle); cycle++ {
			if cycle >= 3_000_000 {
				t.Fatalf("trial %d: machine did not finish", trial)
			}
			for n, c := range m.cores {
				if c.Context() == nil || c.robLen() == 0 || !c.schedOn || c.fenceCount != 0 {
					continue
				}
				peeks++
				peek, walk := c.schedNextEvent(cycle), c.robWalkNextEvent(cycle)
				if peek != walk {
					t.Fatalf("trial %d (width %d window %d %v latch %v): core %d cycle %d: heap peek %d, window walk %d",
						trial, cfg.IssueWidth, cfg.WindowSize, cfg.ConsistencyOpts, cfg.LatchPolicy, n, cycle, peek, walk)
				}
				if cycle%211 == 0 {
					if err := c.Restore(c.Snapshot(), map[int]*Context{m.ctxs[n].ID: m.ctxs[n]}); err != nil {
						t.Fatal(err)
					}
					restores++
					if got := c.schedNextEvent(cycle); got != peek {
						t.Fatalf("trial %d: core %d cycle %d: rebuilt scheduler peeks %d, before restore %d",
							trial, n, cycle, got, peek)
					}
				}
			}
		}
		for _, c := range m.cores {
			rollbacks += c.Rollbacks
		}
		t.Logf("trial %d: nodes=%d width=%d window=%d %v latch=%v: %d cycles, %d peeks, %d restores, %d rollbacks",
			trial, cfg.Nodes, cfg.IssueWidth, cfg.WindowSize, cfg.ConsistencyOpts, cfg.LatchPolicy,
			cycle, peeks, restores, rollbacks)
		if peeks == 0 {
			t.Fatalf("trial %d: the heap peek never applied", trial)
		}
	}
}

// TestSchedulerMatchesGenericWalk runs the same randomized RC machines
// twice — once on the issue scheduler, once with every core forced onto
// the generic window walk — and requires identical core state, counters
// included, at every checkpoint interval: the active set changes how the
// issue stage finds work, never what it issues.
func TestSchedulerMatchesGenericWalk(t *testing.T) {
	rng := rand.New(rand.NewPCG(20261017, 34))
	trials := 16
	if testing.Short() {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		cfg := randomSchedConfig(rng)
		seed := rng.Uint64()
		a, b := newSchedMachine(cfg, seed, false), newSchedMachine(cfg, seed, true)
		for cycle := uint64(1); ; cycle++ {
			ra, rb := a.tick(cycle), b.tick(cycle)
			if cycle%97 == 0 || !ra || !rb {
				for n := range a.cores {
					sa, sb := a.cores[n].Snapshot(), b.cores[n].Snapshot()
					if !reflect.DeepEqual(sa, sb) {
						t.Fatalf("trial %d (width %d window %d %v latch %v): core %d diverged by cycle %d",
							trial, cfg.IssueWidth, cfg.WindowSize, cfg.ConsistencyOpts, cfg.LatchPolicy, n, cycle)
					}
				}
			}
			if ra != rb {
				t.Fatalf("trial %d: one arm finished at cycle %d, the other did not", trial, cycle)
			}
			if !ra {
				break
			}
			if cycle >= 3_000_000 {
				t.Fatalf("trial %d: machine did not finish", trial)
			}
		}
	}
}

// scanStream is a fence-free table-scan kernel in the shape of the DSS
// query loop: per row, two field loads off a streaming pointer, a compare
// and a data-dependent branch, and floating-point accumulation.
func scanStream(seed uint64, rows int) []trace.Instr {
	rng := rand.New(rand.NewPCG(seed, 5))
	var ins []trace.Instr
	const loopPC = uint64(0x4000)
	addr := uint64(0x40_0000)
	for r := 0; r < rows; r++ {
		pc := loopPC
		emit := func(in trace.Instr) {
			in.PC = pc
			pc += 4
			ins = append(ins, in)
		}
		emit(trace.Instr{Op: trace.OpLoad, Addr: addr, Src1: 1, Dest: 2})
		emit(trace.Instr{Op: trace.OpLoad, Addr: addr + 8, Src1: 1, Dest: 3})
		emit(trace.Instr{Op: trace.OpIntALU, Src1: 2, Dest: 4})
		emit(trace.Instr{Op: trace.OpIntALU, Src1: 4, Src2: 3, Dest: 5})
		emit(trace.Instr{Op: trace.OpBranch, Src1: 5, Taken: rng.IntN(8) == 0, Target: pc + 12})
		emit(trace.Instr{Op: trace.OpFPALU, Src1: 3, Src2: 6, Dest: 6})
		emit(trace.Instr{Op: trace.OpFPALU, Src1: 2, Src2: 7, Dest: 7})
		emit(trace.Instr{Op: trace.OpIntALU, Src1: 1, Dest: 1})
		ins = append(ins, trace.Instr{Op: trace.OpBranch, PC: pc, Src1: 1, Taken: r < rows-1, Target: loopPC})
		addr += 32
	}
	return ins
}

// BenchmarkCoreTick measures Core.Tick (with a NextEvent query after each
// tick, as the run loop makes) on fixed generator streams, ticking every
// cycle to completion: a 4-wide out-of-order RC core and a 1-wide in-order
// core, each on the fence-free scan kernel and on randomStream (locks,
// barriers, shared data). It reports host ns per tick and the issue
// stage's examined window entries per 1k retired instructions.
func BenchmarkCoreTick(b *testing.B) {
	streams := map[string][]trace.Instr{
		"scan":   scanStream(7, 4000),
		"random": randomStream(7, 20000),
	}
	for _, arm := range []struct {
		name    string
		width   int
		inOrder bool
	}{
		{"ooo-w4", 4, false},
		{"inorder-w1", 1, true},
	} {
		for _, sname := range []string{"scan", "random"} {
			b.Run(arm.name+"/"+sname, func(b *testing.B) {
				cfg := config.Default()
				cfg.Nodes = 1
				cfg.IssueWidth = arm.width
				cfg.InOrder = arm.inOrder
				var ticks, examined, retired uint64
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					b.StopTimer()
					ms := memsys.MustNew(cfg)
					c := New(cfg, 0, ms.Node(0), newTestLocks())
					c.SwitchTo(&Context{ID: 0, Stream: trace.NewSliceStream(streams[sname])})
					b.StartTimer()
					cycle := uint64(1)
					for ; !c.NeedsSwitch(); cycle++ {
						c.Tick(cycle)
						c.NextEvent(cycle)
					}
					ticks += cycle - 1
					examined += c.IssueExamined
					retired += c.Retired
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ticks), "ns/tick")
				b.ReportMetric(1000*float64(examined)/float64(retired), "examined/kinstr")
			})
		}
	}
}
