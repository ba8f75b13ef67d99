// Package sched models the operating-system scheduler of the traced
// system. The paper's traces mark blocking system calls; the simulator uses
// them as context-switch hints while modelling the scheduler internally
// (Section 2.2). Server processes are pinned to their processor (the paper
// runs a fixed number of processes per CPU: eight for OLTP, four for DSS),
// each CPU keeps a local run queue, context switches cost a fixed overhead,
// and cycles with no runnable process are counted idle and factored out of
// the execution-time breakdowns.
package sched

import (
	"repro/internal/cpu"
)

// Scheduler drives context switches for every core. Not safe for
// concurrent use.
type Scheduler struct {
	switchCost uint64
	queues     [][]*cpu.Context // per-CPU run queues
	switchAt   []uint64         // per-CPU: earliest install time after a switch

	IdleCycles   []uint64 // per-CPU cycles with nothing runnable
	SwitchCycles []uint64 // per-CPU cycles spent context switching
	Switches     []uint64
}

// New returns a scheduler for n CPUs with the given switch cost in cycles.
func New(n int, switchCost int) *Scheduler {
	return &Scheduler{
		switchCost:   uint64(switchCost),
		queues:       make([][]*cpu.Context, n),
		switchAt:     make([]uint64, n),
		IdleCycles:   make([]uint64, n),
		SwitchCycles: make([]uint64, n),
		Switches:     make([]uint64, n),
	}
}

// Add pins a process to CPU cpuID.
func (s *Scheduler) Add(cpuID int, ctx *cpu.Context) {
	s.queues[cpuID] = append(s.queues[cpuID], ctx)
}

// Tick runs the per-cycle scheduling decision for one core: swap out a
// blocked process, install the next runnable one, and account idle and
// switch overhead.
func (s *Scheduler) Tick(cpuID int, core *cpu.Core, now uint64) {
	if core.NeedsSwitch() {
		ctx := core.TakeContext(now)
		if ctx != nil && !ctx.Finished {
			s.queues[cpuID] = append(s.queues[cpuID], ctx)
		}
		s.switchAt[cpuID] = now + s.switchCost
		s.Switches[cpuID]++
	}
	if core.Context() != nil {
		return
	}
	if now < s.switchAt[cpuID] {
		s.SwitchCycles[cpuID]++
		return
	}
	if next := s.pick(cpuID, now); next != nil {
		core.SwitchTo(next)
		return
	}
	s.IdleCycles[cpuID]++
}

// EventNever mirrors cpu.EventNever for the scheduler's next-event bound.
const EventNever = ^uint64(0)

// NextEvent returns a conservative lower bound on the next cycle at which
// Tick(cpuID) would do anything beyond its constant per-cycle accounting
// (SwitchCycles or IdleCycles bumps). now+1 means "cannot prove the next
// cycle is quiet"; EventNever means the scheduler only acts again after the
// core does (a running context's progress is bounded by cpu.NextEvent).
func (s *Scheduler) NextEvent(cpuID int, core *cpu.Core, now uint64) uint64 {
	if core.NeedsSwitch() {
		return now + 1 // the swap-out happens on the next tick
	}
	if core.Context() != nil {
		return EventNever // nothing to do while a process runs
	}
	// Core idle: the next install is the first cycle some queued process is
	// runnable and the switch overhead has elapsed.
	ready := uint64(EventNever)
	for _, ctx := range s.queues[cpuID] {
		if ctx.Finished {
			continue
		}
		if ctx.BlockedUntil < ready {
			ready = ctx.BlockedUntil
		}
	}
	if ready == EventNever {
		return EventNever // processes are pinned: an empty queue stays empty
	}
	if at := s.switchAt[cpuID]; at > ready {
		ready = at
	}
	if ready <= now {
		return now + 1
	}
	return ready
}

// FastForward bulk-applies the per-cycle idle/switch accounting for the
// steady cycles [from, to] (inclusive), which core.Run skipped under a
// NextEvent bound and is now settling: every cycle t in the span would
// have counted SwitchCycles (t < switchAt) or IdleCycles (otherwise), with
// no queue or core mutation.
func (s *Scheduler) FastForward(cpuID int, core *cpu.Core, from, to uint64) {
	if core.Context() != nil {
		return
	}
	n := to - from + 1
	if at := s.switchAt[cpuID]; at > from {
		sw := at - from // cycles t in [from, min(at, to+1)) count as switching
		if sw > n {
			sw = n
		}
		s.SwitchCycles[cpuID] += sw
		n -= sw
	}
	s.IdleCycles[cpuID] += n
}

// pick removes and returns the first runnable process on cpuID's queue.
func (s *Scheduler) pick(cpuID int, now uint64) *cpu.Context {
	q := s.queues[cpuID]
	for i, ctx := range q {
		if ctx.Finished {
			continue
		}
		if ctx.BlockedUntil <= now {
			s.queues[cpuID] = append(q[:i:i], q[i+1:]...)
			return ctx
		}
	}
	return nil
}

// Pending reports whether any unfinished process remains on cpuID's queue.
func (s *Scheduler) Pending(cpuID int) bool {
	for _, ctx := range s.queues[cpuID] {
		if !ctx.Finished {
			return true
		}
	}
	return false
}

// ResetStats zeroes idle/switch accounting.
func (s *Scheduler) ResetStats() {
	for i := range s.IdleCycles {
		s.IdleCycles[i], s.SwitchCycles[i], s.Switches[i] = 0, 0, 0
	}
}
