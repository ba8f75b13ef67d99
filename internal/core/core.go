// Package core assembles the whole simulated machine — processors
// (internal/cpu), memory system (internal/memsys), and OS scheduler
// (internal/sched) — and runs the global cycle loop. This is the paper's
// simulated AlphaServer-class CC-NUMA multiprocessor; every experiment in
// internal/experiments is a set of Runs of this system under different
// configurations and workloads.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/diag"
	"repro/internal/memsys"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracing"
)

// LockTable holds the values of the simulated lock memory locations, shared
// machine-wide. The paper maintains lock values in the simulated
// environment so that inter-process synchronization (and therefore lock
// passing and migratory transfers) happens in simulated time.
type LockTable struct {
	owner  map[uint64]int
	freeAt map[uint64]uint64
	gen    uint64 // bumped on every release (cached-wake invalidation)

	// Contention counters (telemetry): acquires counts ownership
	// transitions (idempotent re-acquires by the holder excluded);
	// contended counts acquires that had at least one failing attempt
	// first; handoffs counts acquires whose previous owner was a
	// different process (the lock-passing / migratory transfers).
	acquires  uint64
	contended uint64
	handoffs  uint64
	failed    map[uint64]bool // locks with a failed attempt since last acquire
	lastOwner map[uint64]int
}

// NewLockTable returns an empty lock table.
func NewLockTable() *LockTable {
	return &LockTable{
		owner:     make(map[uint64]int),
		freeAt:    make(map[uint64]uint64),
		failed:    make(map[uint64]bool),
		lastOwner: make(map[uint64]int),
	}
}

// TryAcquire implements cpu.LockManager. Acquires are idempotent for the
// holder (a squashed-and-replayed acquire must not deadlock against
// itself).
func (t *LockTable) TryAcquire(addr uint64, proc int, now uint64) bool {
	if o, held := t.owner[addr]; held {
		if o == proc {
			return true
		}
		t.failed[addr] = true
		return false
	}
	if now < t.freeAt[addr] {
		t.failed[addr] = true
		return false
	}
	t.owner[addr] = proc
	t.acquires++
	if t.failed[addr] {
		t.contended++
		delete(t.failed, addr)
	}
	if prev, ok := t.lastOwner[addr]; ok && prev != proc {
		t.handoffs++
	}
	t.lastOwner[addr] = proc
	return true
}

// LockFree implements cpu.LockViewer: whether a TryAcquire by proc at now
// would succeed, without mutating the table. The HTM elision path uses it
// to gate speculation on latch availability.
func (t *LockTable) LockFree(addr uint64, proc int, now uint64) bool {
	if o, held := t.owner[addr]; held {
		return o == proc
	}
	return now >= t.freeAt[addr]
}

// Counters returns the cumulative acquire / contended-acquire / handoff
// counts (see the field comments).
func (t *LockTable) Counters() (acquires, contended, handoffs uint64) {
	return t.acquires, t.contended, t.handoffs
}

// resetCounters zeroes the contention counters (warm-up reset); ownership
// state is untouched.
func (t *LockTable) resetCounters() {
	t.acquires, t.contended, t.handoffs = 0, 0, 0
}

// Release implements cpu.LockManager: the lock becomes acquirable once the
// releasing store has performed.
func (t *LockTable) Release(addr uint64, proc int, availableAt uint64) {
	if o, held := t.owner[addr]; held && o == proc {
		delete(t.owner, addr)
		t.freeAt[addr] = availableAt
		// A release is the one lock transition that can make a spinner's
		// next interesting cycle earlier than any bound it was given
		// (NextTry returns EventNever while the lock is held), so the run
		// loop drops cached per-core wake times when gen changes.
		t.gen++
	}
}

// NextTry implements cpu.LockProber: the next cycle at which a failing
// TryAcquire by proc could change outcome. Held by proc itself means the
// idempotent re-acquire succeeds immediately (now+1); held by another
// process means only the holder's release changes anything, and the
// holder's own pipeline events already bound that (EventNever); released
// but cooling down means the freeAt cycle.
func (t *LockTable) NextTry(addr uint64, proc int, now uint64) uint64 {
	if o, held := t.owner[addr]; held {
		if o == proc {
			return now + 1
		}
		return cpu.EventNever
	}
	if f := t.freeAt[addr]; now < f {
		return f
	}
	return now + 1
}

// Held reports whether the lock is currently owned (tests).
func (t *LockTable) Held(addr uint64) bool {
	_, ok := t.owner[addr]
	return ok
}

// Owners returns a snapshot of the currently held locks (address ->
// holding process id), for diagnostics.
func (t *LockTable) Owners() map[uint64]int {
	m := make(map[uint64]int, len(t.owner))
	for a, p := range t.owner {
		m[a] = p
	}
	return m
}

// System is the whole simulated machine.
type System struct {
	cfg   config.Config
	mem   *memsys.System
	cores []*cpu.Core
	sch   *sched.Scheduler
	locks *LockTable
	procs []*cpu.Context

	cycle      uint64
	statsStart uint64
	nextProc   int
}

// NewSystem builds a machine for cfg.
func NewSystem(cfg config.Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mem, err := memsys.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:   cfg,
		mem:   mem,
		sch:   sched.New(cfg.Nodes, cfg.CtxSwitchCycles),
		locks: NewLockTable(),
	}
	for n := 0; n < cfg.Nodes; n++ {
		s.cores = append(s.cores, cpu.New(cfg, n, s.mem.Node(n), s.locks))
	}
	return s, nil
}

// Mem returns the memory system.
func (s *System) Mem() *memsys.System { return s.mem }

// Core returns processor n.
func (s *System) Core(n int) *cpu.Core { return s.cores[n] }

// Scheduler returns the OS scheduler model.
func (s *System) Scheduler() *sched.Scheduler { return s.sch }

// Locks returns the machine-wide lock table.
func (s *System) Locks() *LockTable { return s.locks }

// Config returns the machine configuration.
func (s *System) Config() config.Config { return s.cfg }

// Cycle returns the current simulated cycle.
func (s *System) Cycle() uint64 { return s.cycle }

// AddProcess pins a server process running stream to cpuID's run queue and
// returns its context.
func (s *System) AddProcess(cpuID int, stream trace.Stream) *cpu.Context {
	if cpuID < 0 || cpuID >= s.cfg.Nodes {
		panic(fmt.Sprintf("core: cpu %d out of range", cpuID))
	}
	ctx := &cpu.Context{ID: s.nextProc, Stream: stream}
	s.nextProc++
	s.procs = append(s.procs, ctx)
	s.sch.Add(cpuID, ctx)
	return ctx
}

// RunOptions controls a simulation run.
type RunOptions struct {
	Label string
	// WarmupInstructions: statistics are reset once this many instructions
	// have retired machine-wide (warm-up transients ignored, Section 2.2).
	WarmupInstructions uint64
	// MaxCycles bounds the run (0 = no bound). Exceeding it is an error so
	// that runaway runs are caught rather than silently truncated.
	MaxCycles uint64
	// WatchdogWindow is the forward-progress watchdog: if no instruction
	// retires machine-wide for this many consecutive cycles the run fails
	// with a *ProgressError carrying a machine snapshot. 0 means
	// DefaultWatchdogWindow; set DisableWatchdog to turn the check off.
	WatchdogWindow  uint64
	DisableWatchdog bool
	// Context, when non-nil, cancels or deadlines the run; it is polled
	// every few thousand cycles and its error is returned wrapped in a
	// *CanceledError.
	Context context.Context
	// Telemetry, when non-nil, receives interval samples every
	// TelemetryInterval simulated cycles (pipeline interval, then
	// cfg.TelemetryInterval, then telemetry.DefaultInterval). Sampling
	// is a pure observer: it never changes retirement or cycle counts.
	// The caller owns the pipeline and closes it after the run.
	Telemetry *telemetry.Pipeline
	// Tracer, when non-nil, is attached to every core and memory hierarchy
	// for the run: a pure observer recording cycle-resolved stall, miss,
	// and lock events. It is reset at the warm-up statistics reset so its
	// aggregates reconcile with the report's post-warm-up breakdown, and
	// finished (open spans closed) when the run returns. The caller owns
	// the tracer and exports it after the run.
	Tracer *tracing.Tracer
	// DisableFastForward turns off the event-driven idle-cycle skip and
	// ticks every cycle instead. Fast-forward is bit-identical by
	// construction (reports, telemetry, and traces match exactly); the
	// escape hatch exists for the equivalence tests and for debugging.
	DisableFastForward bool
	// Checkpoint, when non-nil, arms periodic mid-run checkpointing (and
	// a final capture when Context cancels the run): every Interval
	// cycles the full dynamic machine state is written atomically to
	// Path. See CheckpointOptions and RestoreAndRun.
	Checkpoint *CheckpointOptions
}

// DefaultWatchdogWindow is the default forward-progress window in cycles.
// The longest legitimate machine-wide retirement gap is a full complement
// of processes blocked in system calls (the OLTP workload's commit I/O is
// 100k cycles), so 2M cycles of global silence indicates a livelock, not
// patience.
const DefaultWatchdogWindow = 2_000_000

// ctxCheckEvery is how often (in cycles) Run polls opt.Context; a power of
// two keeps the modulo cheap in the hot loop.
const ctxCheckEvery = 4096

// ErrMaxCycles reports that the run hit its cycle bound before all
// processes finished. Returned errors wrap it: test with errors.Is.
var ErrMaxCycles = errors.New("core: simulation exceeded MaxCycles")

// CycleLimitError is the error returned when MaxCycles is exceeded; it
// wraps ErrMaxCycles and carries the machine snapshot at the limit.
type CycleLimitError struct {
	Cycles   uint64 // cycles simulated in the measurement interval
	Retired  uint64 // instructions retired machine-wide
	Snapshot *diag.Snapshot
}

func (e *CycleLimitError) Error() string {
	return fmt.Sprintf("core: simulation exceeded MaxCycles (%d cycles, %d instructions retired)", e.Cycles, e.Retired)
}

// Unwrap makes errors.Is(err, ErrMaxCycles) work.
func (e *CycleLimitError) Unwrap() error { return ErrMaxCycles }

// ProgressError reports that the forward-progress watchdog tripped: no
// instruction retired machine-wide for a full watchdog window.
type ProgressError struct {
	Cycle        uint64 // cycle at which the watchdog tripped
	LastProgress uint64 // last cycle at which any instruction retired
	Window       uint64 // the watchdog window that was exceeded
	Retired      uint64 // instructions retired machine-wide before the stall
	Snapshot     *diag.Snapshot
}

func (e *ProgressError) Error() string {
	return fmt.Sprintf("core: no forward progress: no instruction retired between cycle %d and %d (window %d, %d retired total)",
		e.LastProgress, e.Cycle, e.Window, e.Retired)
}

// CanceledError reports that opt.Context ended the run early; it wraps the
// context's error so errors.Is(err, context.Canceled/DeadlineExceeded)
// works. The snapshot shows where the machine was when it was interrupted,
// so a Ctrl-C'd run still yields diagnostics.
type CanceledError struct {
	Cycle    uint64
	Cause    error
	Snapshot *diag.Snapshot
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("core: run canceled at cycle %d: %v", e.Cycle, e.Cause)
}

func (e *CanceledError) Unwrap() error { return e.Cause }

// Run simulates until every process finishes its trace, returning the
// statistics report. Panics from the machine model (internal invariants,
// the coherence checker, the memory-ordering checks) are recovered into a
// *diag.PanicError carrying a machine snapshot, so a crashing run fails
// with diagnostics instead of taking the process down.
func (s *System) Run(opt RunOptions) (*stats.Report, error) {
	return s.run(opt, nil)
}

// run is the shared body of Run and RestoreAndRun. resume, when
// non-nil, is the checkpoint the machine was just restored from; it
// seeds the run-loop bookkeeping (warm-up flag, watchdog cursor) and
// the observer state so the resumed run continues bit-identically.
func (s *System) run(opt RunOptions, resume *MachineState) (rep *stats.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, s.recoverPanic(r)
		}
	}()
	window := opt.WatchdogWindow
	if window == 0 {
		window = DefaultWatchdogWindow
	}
	lastRetired := s.totalRetired()
	lastProgress := s.cycle
	warmed := opt.WarmupInstructions == 0
	if resume != nil {
		lastRetired = resume.LastRetired
		lastProgress = resume.LastProgress
		warmed = resume.Warmed
	}
	ck := opt.Checkpoint
	ckInterval := ck.interval()
	tel := s.newTelemetry(opt)
	if tel != nil && resume != nil && resume.Telemetry != nil {
		tel.restore(resume.Telemetry)
	}
	if opt.Tracer != nil {
		for i, c := range s.cores {
			c.SetTracer(opt.Tracer)
			s.mem.Node(i).SetTracer(opt.Tracer)
		}
		if resume != nil && resume.Tracer != nil {
			if terr := opt.Tracer.Restore(*resume.Tracer); terr != nil {
				return nil, terr
			}
		} else {
			opt.Tracer.Start(s.cycle)
		}
		// Close open spans on every exit path (including recovered panics
		// and cycle-limit/watchdog/cancel errors) so partial traces are
		// still well-formed.
		defer func() { opt.Tracer.Finish(s.cycle) }()
	}
	prevRet := lastRetired
	// Per-core steady-cycle skip: wake[i] is a cached bound below which core
	// i provably repeats the same retire-free cycle, so its Tick is skipped
	// and the cycle only recorded as owed (cpu.Core.Defer); settle applies
	// the owed bookkeeping in bulk when something next acts on or reads the
	// core. The bound is computed only on retire-free ticks (on busy cores
	// the bookkeeping would be pure overhead) and is invalidated by the two
	// cross-core channels that can make a core's next interesting cycle
	// earlier than predicted: a line invalidation marking one of its
	// speculative loads violated (TakePoked) and any lock release
	// (LockTable.gen). Everything else that times a core — its own
	// pipeline, its own scheduler queue, fixed memory latencies — is
	// already folded into NextEvent.
	//
	// With a tracer attached every skipped cycle is settled at once: the
	// order in which stall spans reach the tracer's shared ring is part of
	// the exported trace.
	eager := opt.Tracer != nil
	wake := make([]uint64, len(s.cores))
	coreRet := make([]uint64, len(s.cores))
	for i, c := range s.cores {
		coreRet[i] = c.Retired
	}
	lockGen := s.locks.gen
	for {
		s.cycle++
		allDone := true
		for i, c := range s.cores {
			if s.locks.gen != lockGen {
				// A lock was released mid-cycle (by an earlier core's tick) or
				// since last cycle: drop every cached bound — a spinner's next
				// successful try may now be due immediately.
				lockGen = s.locks.gen
				for k := range wake {
					wake[k] = 0
				}
			}
			if !opt.DisableFastForward && wake[i] > s.cycle && !c.TakePoked() {
				c.Defer(s.cycle, s.cycle)
				if eager {
					s.settle(i)
				}
			} else {
				s.settle(i)
				s.sch.Tick(i, c, s.cycle)
				c.Tick(s.cycle)
				if rr := c.Retired; rr != coreRet[i] {
					coreRet[i] = rr
					wake[i] = 0
				} else if !opt.DisableFastForward {
					w := s.sch.NextEvent(i, c, s.cycle)
					if cw := c.NextEvent(s.cycle); cw < w {
						w = cw
					}
					wake[i] = w
				}
			}
			if c.Context() != nil || s.sch.Pending(i) {
				allDone = false
			}
		}
		ret := s.totalRetired()
		if !warmed && ret >= opt.WarmupInstructions {
			s.ResetStats()
			if opt.Tracer != nil {
				opt.Tracer.Reset(s.cycle)
			}
			warmed = true
			ret = s.totalRetired() // counters were just zeroed
		}
		if tel != nil {
			tel.maybeSample(s)
		}
		if allDone {
			break
		}
		if opt.MaxCycles > 0 && s.cycle-s.statsStart >= opt.MaxCycles {
			return s.buildReport(opt.Label), &CycleLimitError{
				Cycles:   s.cycle - s.statsStart,
				Retired:  ret,
				Snapshot: s.Snapshot("cycle-limit"),
			}
		}
		if !opt.DisableWatchdog {
			if ret != lastRetired {
				lastRetired, lastProgress = ret, s.cycle
			} else if s.cycle-lastProgress >= window {
				return s.buildReport(opt.Label), &ProgressError{
					Cycle:        s.cycle,
					LastProgress: lastProgress,
					Window:       window,
					Retired:      lastRetired,
					Snapshot:     s.Snapshot("watchdog"),
				}
			}
		}
		if opt.Context != nil && s.cycle%ctxCheckEvery == 0 {
			if cerr := opt.Context.Err(); cerr != nil {
				// Final capture so the preempted run can resume from here
				// instead of its last periodic boundary. Best-effort: the
				// cancellation is reported either way, and a failed write
				// leaves the previous (still valid) checkpoint in place.
				if ck != nil {
					_ = s.captureCheckpoint(ck, warmed, lastRetired, lastProgress, tel, opt.Tracer)
				}
				return s.buildReport(opt.Label), &CanceledError{
					Cycle:    s.cycle,
					Cause:    cerr,
					Snapshot: s.Snapshot("canceled"),
				}
			}
		}
		if ck != nil && s.cycle%ckInterval == 0 {
			if cerr := s.captureCheckpoint(ck, warmed, lastRetired, lastProgress, tel, opt.Tracer); cerr != nil {
				return s.buildReport(opt.Label), fmt.Errorf("core: checkpoint at cycle %d: %w", s.cycle, cerr)
			}
		}
		// A retire-free cycle is the fast-forward trigger: only then is it
		// worth asking every component for its next event. (The skip itself
		// is correct regardless; this is purely a cost gate.)
		if !opt.DisableFastForward && ret == prevRet {
			if s.locks.gen != lockGen {
				// A core later in this cycle's order released a lock after the
				// earlier cores' bounds were refreshed: a spinner's next
				// successful try may precede its cached wake. No jump; the
				// zeroed bounds force full re-ticking next cycle.
				lockGen = s.locks.gen
				for k := range wake {
					wake[k] = 0
				}
			} else {
				s.fastForward(&opt, window, lastProgress, tel, wake, ckInterval, eager)
			}
		}
		prevRet = ret
	}
	s.mem.Finalize(s.cycle)
	if tel != nil {
		tel.flush(s)
	}
	return s.buildReport(opt.Label), nil
}

// fastForward jumps s.cycle to just before the machine-wide next event
// when every component proves the intervening cycles are steady (constant
// per-cycle bookkeeping, zero state mutation), deferring that bookkeeping
// to each core's next settle so the run is bit-identical to ticking every
// cycle. The jump is also capped so that every externally timed check in
// Run — telemetry sample boundaries, the watchdog trip, the MaxCycles
// trip, the context poll cadence — still happens on exactly the cycle it
// would have.
func (s *System) fastForward(opt *RunOptions, window, lastProgress uint64, tel *telemetryState, wake []uint64, ckInterval uint64, eager bool) {
	now := s.cycle
	limit := uint64(cpu.EventNever)
	// On a machine-wide retire-free cycle every core either skipped (its
	// cached wake bound still holds) or ticked retire-free and refreshed its
	// bound, so the machine-wide next event is simply the minimum of the
	// per-core bounds — no component needs to be asked again, provided the
	// two cross-core invalidation channels are re-checked here: the caller
	// rules out lock releases that post-date the refreshes, and pokes are
	// consumed below. A zero bound (core mid-refresh, e.g. right after the
	// warm-up counter reset) just means "unknown": no jump this cycle.
	for i, c := range s.cores {
		w := wake[i]
		if c.TakePoked() {
			// An invalidation landed after this core's bound was cached (a
			// later core's store this very cycle): the rollback is due at the
			// violated load's retirement, earlier than the stale bound. Zeroing
			// the bound forces a re-ticking refresh next cycle.
			w = 0
			wake[i] = 0
		}
		if w < limit {
			limit = w
		}
		if limit <= now+1 {
			return
		}
	}
	// limit may still be EventNever here — a wedged machine (spinners whose
	// lock holder never releases). The caps below bound the jump to the
	// watchdog trip, cycle limit, context poll, or telemetry sample; with
	// none of them set the final check falls back to per-cycle ticking,
	// which is the original loop's (non-terminating) behavior.
	if tel != nil && tel.nextAt < limit {
		limit = tel.nextAt
	}
	if !opt.DisableWatchdog {
		if t := lastProgress + window; t < limit {
			limit = t
		}
	}
	if opt.MaxCycles > 0 {
		if t := s.statsStart + opt.MaxCycles; t < limit {
			limit = t
		}
	}
	if opt.Context != nil {
		if t := (now/ctxCheckEvery + 1) * ctxCheckEvery; t < limit {
			limit = t
		}
	}
	if opt.Checkpoint != nil && ckInterval > 0 {
		// Capture boundaries must be ticked normally so the checkpoint
		// cadence is a deterministic function of the cycle count alone.
		if t := (now/ckInterval + 1) * ckInterval; t < limit {
			limit = t
		}
	}
	if limit <= now+1 || limit == cpu.EventNever {
		return
	}
	// Cycles now+1 .. limit-1 are steady; cycle limit is ticked normally by
	// the next loop iteration (it may retire, sample, trip a check, ...).
	from, to := now+1, limit-1
	for i, c := range s.cores {
		c.Defer(from, to)
		if eager {
			s.settle(i)
		}
	}
	s.cycle = to
}

// settle applies core i's deferred skipped-cycle bookkeeping, on the core
// and on its scheduler slot. Exactly one of the two accrues anything: the
// core while a process is installed, the slot while none is, and neither
// changes during a skip.
func (s *System) settle(i int) {
	c := s.cores[i]
	if from, to, ok := c.Settle(); ok {
		s.sch.FastForward(i, c, from, to)
	}
}

// settleAll brings every core's counters up to date: it runs before
// anything reads them (telemetry samples, the warm-up reset, checkpoint
// capture, the report).
func (s *System) settleAll() {
	for i := range s.cores {
		s.settle(i)
	}
}

// recoverPanic converts a recovered panic into a *diag.PanicError. The
// snapshot is taken best-effort: if the machine is too corrupted to
// inspect, the panic error still carries the value and stack.
func (s *System) recoverPanic(r any) error {
	pe := &diag.PanicError{Value: r, Stack: debug.Stack()}
	func() {
		defer func() { _ = recover() }()
		pe.Snapshot = s.Snapshot("panic")
	}()
	return pe
}

// Snapshot captures the machine state for diagnostics: per-core pipeline
// occupancy and head instruction, in-flight misses, directory summary,
// held locks with their spinners, and mesh traffic.
func (s *System) Snapshot(reason string) *diag.Snapshot {
	snap := &diag.Snapshot{Cycle: s.cycle, Reason: reason}

	spinners := make(map[uint64][]int) // lock addr -> core ids spinning
	for i, c := range s.cores {
		cs := diag.CoreState{
			ID:        i,
			ContextID: -1,
			Retired:   c.Retired,
			ROB:       c.ROBLen(),
			FetchQ:    c.FetchQueueLen(),
			WriteBuf:  c.WriteBufferLen(),
		}
		if ctx := c.Context(); ctx != nil {
			cs.ContextID = ctx.ID
		}
		if op, pc, addr, ok := c.HeadInstr(); ok {
			cs.HeadOp, cs.HeadPC, cs.HeadAddr = op, pc, addr
		}
		if addr, ok := c.SpinningOn(); ok {
			cs.Spinning, cs.SpinAddr = true, addr
			spinners[addr] = append(spinners[addr], i)
		}
		snap.Cores = append(snap.Cores, cs)
	}

	for n := 0; n < s.cfg.Nodes; n++ {
		h := s.mem.Node(n)
		ns := diag.NodeState{Node: n}
		for _, mf := range []struct {
			level string
			f     *cache.MSHRFile
		}{
			{"L1I", h.L1IMSHRs()}, {"L1D", h.L1DMSHRs()}, {"L2", h.L2MSHRs()},
		} {
			ms := diag.MSHRState{Level: mf.level, InUse: mf.f.InUse(), Max: mf.f.Max()}
			for _, e := range mf.f.Entries() {
				ms.Lines = append(ms.Lines, diag.MSHRLine{LineAddr: e.LineAddr, Done: e.Done, AllocAt: e.AllocAt, Write: e.Write})
			}
			ns.MSHRs = append(ns.MSHRs, ms)
		}
		snap.Nodes = append(snap.Nodes, ns)
	}

	dir := s.mem.Directory()
	snap.Dir.Lines, snap.Dir.Owned, snap.Dir.Shared, snap.Dir.Migratory = dir.StateCounts()

	for addr, owner := range s.locks.Owners() {
		snap.Locks = append(snap.Locks, diag.LockState{Addr: addr, Owner: owner, Waiters: spinners[addr]})
	}
	sort.Slice(snap.Locks, func(i, j int) bool { return snap.Locks[i].Addr < snap.Locks[j].Addr })

	net := s.mem.Net()
	snap.Mesh = diag.MeshState{
		Messages:    net.Messages,
		AvgLatency:  net.AvgLatency(),
		QueueCycles: net.QueueCycles,
		BusyLinks:   net.BusyLinks(s.cycle),
	}
	return snap
}

func (s *System) totalRetired() uint64 {
	var n uint64
	for _, c := range s.cores {
		n += c.Retired
	}
	return n
}

// ResetStats discards statistics accumulated so far (used for warm-up).
func (s *System) ResetStats() {
	s.settleAll()
	for _, c := range s.cores {
		c.ResetStats()
	}
	s.mem.ResetStats(s.cycle)
	s.sch.ResetStats()
	s.locks.resetCounters()
	s.statsStart = s.cycle
}

// buildReport aggregates machine-wide statistics.
func (s *System) buildReport(label string) *stats.Report {
	s.settleAll()
	r := &stats.Report{Label: label, Cycles: s.cycle - s.statsStart}

	var condBr, condMis uint64
	var lockTries, lockWaits uint64
	for i, c := range s.cores {
		r.Breakdown.Add(&c.Bk)
		r.Instructions += c.Retired
		r.IdleCycles += float64(s.sch.IdleCycles[i] + s.sch.SwitchCycles[i])
		condBr += c.Predictor().CondBranches
		condMis += c.Predictor().CondMispred
		lockTries += c.LockTries
		lockWaits += c.LockWaits
		r.HTMBegins += c.HTMBegins
		r.HTMCommits += c.HTMCommits
		r.HTMConflictAborts += c.HTMConflictAborts
		r.HTMCapacityAborts += c.HTMCapacityAborts
		r.HTMExplicitAborts += c.HTMExplicitAborts
		r.HTMFallbacks += c.HTMFallbacks
	}
	r.LatchAcquires, r.LatchContended, r.LatchHandoffs = s.locks.Counters()
	if condBr > 0 {
		r.BranchMispred = float64(condMis) / float64(condBr)
	}
	if lockTries > 0 {
		r.SyncContention = float64(lockWaits) / float64(lockTries)
	}

	var l1iA, l1iM, l1dA, l1dM, l2A, l2M uint64
	var itlbA, itlbM, dtlbA, dtlbM uint64
	var sbHit, sbMiss uint64
	var l1AllRaw, l2AllRaw, l1ReadRaw, l2ReadRaw [][]uint64
	for n := 0; n < s.cfg.Nodes; n++ {
		h := s.mem.Node(n)
		l1iA += h.L1I().Reads + h.L1I().Writes
		l1iM += h.L1I().ReadMisses + h.L1I().WriteMisses - h.IFetchSBHits
		l1dA += h.L1D().Reads + h.L1D().Writes
		l1dM += h.L1D().ReadMisses + h.L1D().WriteMisses
		l2A += h.L2().Reads + h.L2().Writes
		l2M += h.L2().ReadMisses + h.L2().WriteMisses
		itlbA += h.ITLB().Accesses
		itlbM += h.ITLB().Misses
		dtlbA += h.DTLB().Accesses
		dtlbM += h.DTLB().Misses
		if sb := h.StreamBuffer(); sb != nil {
			sbHit += sb.Hits
			sbMiss += sb.Misses
		}
		a, rd := h.L1DMSHRs().RawOccupancy()
		l1AllRaw = append(l1AllRaw, a)
		l1ReadRaw = append(l1ReadRaw, rd)
		a, rd = h.L2MSHRs().RawOccupancy()
		l2AllRaw = append(l2AllRaw, a)
		l2ReadRaw = append(l2ReadRaw, rd)
	}
	div := func(m, a uint64) float64 {
		if a == 0 {
			return 0
		}
		return float64(m) / float64(a)
	}
	// The L1I rate is per instruction fetched (the fetch engine accesses
	// the cache once per sequential run within a line, so per-line-fetch
	// rates are not comparable to the paper's).
	_ = l1iA
	r.L1IMissRate, r.L1IMisses = div(l1iM, r.Instructions), l1iM
	r.L1DMissRate, r.L1DMisses = div(l1dM, l1dA), l1dM
	r.L2MissRate, r.L2Misses = div(l2M, l2A), l2M
	r.ITLBMissRate = div(itlbM, itlbA)
	r.DTLBMissRate = div(dtlbM, dtlbA)
	if sbHit+sbMiss > 0 {
		r.StreamBufHitRate = float64(sbHit) / float64(sbHit+sbMiss)
	}
	r.L1MSHRAll = cache.CombineOccupancy(l1AllRaw)
	r.L1MSHRRead = cache.CombineOccupancy(l1ReadRaw)
	r.L2MSHRAll = cache.CombineOccupancy(l2AllRaw)
	r.L2MSHRRead = cache.CombineOccupancy(l2ReadRaw)

	dir := s.mem.Directory()
	r.DirtyFraction = dir.DirtyReadFraction()
	if dir.WritesShared > 0 {
		r.SharedWriteMigratory = float64(dir.MigratoryWrites) / float64(dir.WritesShared)
	}
	if dir.ReadsDirty > 0 {
		r.ReadDirtyMigratory = float64(dir.MigratoryReadsCC) / float64(dir.ReadsDirty)
	}
	cl := s.mem.Classifier()
	r.MigratoryLines = cl.MigratoryLineCount()
	r.MigratoryPCs = cl.MigratoryPCCount()
	r.LineConcentration = cl.WriteMissConcentration(0.03)
	r.PCConcentration = cl.PCConcentration(0.10)
	r.WriteCSFraction = cl.WriteCSFraction()
	r.ReadCSFraction = cl.ReadCSFraction()
	r.AvgNetLatency = s.mem.Net().AvgLatency()
	return r
}
