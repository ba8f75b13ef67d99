package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/memsys"
	"repro/internal/mesh"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// captureLimit bounds each captured stream (instructions); it keeps the
// captured inputs near 30 MB.
const captureLimit = 150_000

// microTime is the least host time each microbenchmark measures.
const microTime = 200 * time.Millisecond

// capture collects, untimed, the instruction streams of processes 0 to
// nodes-1 of the workload's generator at seed: process p runs on node p in
// the simulated machine, so each stream carries one node's share of the
// workload.
func capture(workload string, nodes int, seed uint64, sc experiments.Scale) ([][]trace.Instr, error) {
	g, err := newGenerator(workload, nodes, seed, sc)
	if err != nil {
		return nil, err
	}
	out := make([][]trace.Instr, nodes)
	for p := range out {
		out[p] = trace.Collect(g.stream(p), captureLimit)
	}
	return out, nil
}

// dataRef is one load or store of a captured stream, resolved (untimed)
// to its physical line and home node.
type dataRef struct {
	node         int
	write        bool
	vaddr, paddr uint64
	pc           uint64
	home         int
}

// dataRefs interleaves the streams' memory references round-robin, one
// instruction per node at a time, as the nodes run side by side.
func dataRefs(cfg config.Config, streams [][]trace.Instr) ([]dataRef, error) {
	pt, err := tlb.NewPageTable(cfg.PageBytes)
	if err != nil {
		return nil, err
	}
	var refs []dataRef
	for i := 0; ; i++ {
		more := false
		for node, s := range streams {
			if i >= len(s) {
				continue
			}
			more = true
			in := s[i]
			if in.Op != trace.OpLoad && in.Op != trace.OpStore {
				continue
			}
			pa, home := pt.Translate(in.Addr, node)
			refs = append(refs, dataRef{node: node, write: in.Op == trace.OpStore, vaddr: in.Addr, paddr: pa, pc: in.PC, home: home})
		}
		if !more {
			return refs, nil
		}
	}
}

// timeLoop runs pass (one pass over the inputs, ops operations) until it
// has measured at least microTime and three passes, and returns host ns
// per operation.
func timeLoop(ops int, pass func()) float64 {
	var elapsed time.Duration
	n := 0
	for ; n < 3 || elapsed < microTime; n++ {
		t0 := time.Now()
		pass()
		elapsed += time.Since(t0)
	}
	return float64(elapsed.Nanoseconds()) / float64(n*ops)
}

// microbench measures the layers on inputs shaped by the workload: the
// captured streams' PCs drive IFetch, their data addresses the caches,
// TLBs, directory and memory hierarchy, and their requester and home nodes
// the mesh. tickCfg is the machine whose core the cpu benchmark ticks.
func microbench(cfg, tickCfg config.Config, streams [][]trace.Instr, out map[string]metric) error {
	refs, err := dataRefs(cfg, streams)
	if err != nil {
		return err
	}
	var loads, stores []dataRef
	for _, r := range refs {
		if r.write {
			stores = append(stores, r)
		} else {
			loads = append(loads, r)
		}
	}
	if len(loads) == 0 || len(stores) == 0 {
		return fmt.Errorf("captured streams hold %d loads and %d stores", len(loads), len(stores))
	}

	// Cache: L1D and L2 geometries over the physical addresses.
	var lookupNS, insertNS float64
	for _, g := range []config.CacheConfig{cfg.L1D, cfg.L2} {
		c, err := cache.New("bench", g.SizeBytes, g.Assoc, g.LineBytes)
		if err != nil {
			return err
		}
		insertNS += timeLoop(len(refs), func() {
			for _, r := range refs {
				c.Insert(r.paddr, cache.Shared)
			}
		}) / 2
		lookupNS += timeLoop(len(refs), func() {
			for _, r := range refs {
				c.Lookup(r.paddr)
			}
		}) / 2
	}
	out["cache.lookup_ns"] = metric{lookupNS, "ns"}
	out["cache.insert_ns"] = metric{insertNS, "ns"}

	// Directory: loads as GETS, stores as GETX, each on a fresh directory
	// per pass so every pass sees the same sequence of states.
	lineShift := uint(0)
	for 1<<lineShift < cfg.L2.LineBytes {
		lineShift++
	}
	out["coherence.read_ns"] = metric{timeLoop(len(loads), func() {
		d := coherence.NewDirectory()
		for _, r := range loads {
			d.Read(r.node, r.paddr>>lineShift)
		}
	}), "ns"}
	out["coherence.write_ns"] = metric{timeLoop(len(stores), func() {
		d := coherence.NewDirectory()
		for _, r := range stores {
			d.Write(r.node, r.paddr>>lineShift)
		}
	}), "ns"}

	// Page table (warm: every page already placed) and per-node TLBs.
	pt, err := tlb.NewPageTable(cfg.PageBytes)
	if err != nil {
		return err
	}
	for _, r := range refs {
		pt.Translate(r.vaddr, r.node)
	}
	out["tlb.translate_ns"] = metric{timeLoop(len(refs), func() {
		for _, r := range refs {
			pt.Translate(r.vaddr, r.node)
		}
	}), "ns"}
	tlbs := make([]*tlb.TLB, cfg.Nodes)
	for i := range tlbs {
		if tlbs[i], err = tlb.New(cfg.DTLBEntries); err != nil {
			return err
		}
	}
	out["tlb.lookup_ns"] = metric{timeLoop(len(refs), func() {
		for _, r := range refs {
			tlbs[r.node].Lookup(pt.VPN(r.vaddr))
		}
	}), "ns"}

	// Mesh: a control request from requester to home and the data reply.
	net, err := mesh.New(cfg.Nodes, cfg.HopCycles, cfg.FlitCycles)
	if err != nil {
		return err
	}
	var now uint64
	out["mesh.send_ns"] = metric{timeLoop(2*len(refs), func() {
		for _, r := range refs {
			now++
			net.Send(r.node, r.home, cfg.CtrlFlits, now)
			net.Send(r.home, r.node, cfg.DataFlits, now)
		}
	}), "ns"}

	// Memory hierarchy: each node issues its next access when the previous
	// one completes. A fresh machine per pass, built untimed.
	dataRead, err := memPass(cfg, len(loads), func(ms *memsys.System, at []uint64) {
		for _, r := range loads {
			res := ms.Node(r.node).DataRead(r.vaddr, r.pc, at[r.node], false)
			at[r.node] = max(at[r.node]+1, res.Done)
		}
	})
	if err != nil {
		return err
	}
	out["memsys.dataread_ns"] = metric{dataRead, "ns"}
	lineMask := ^uint64(cfg.L1I.LineBytes - 1)
	var fetches int
	for _, s := range streams {
		last := ^uint64(0)
		for _, in := range s {
			if in.PC&lineMask != last {
				last = in.PC & lineMask
				fetches++
			}
		}
	}
	ifetch, err := memPass(cfg, fetches, func(ms *memsys.System, at []uint64) {
		for node, s := range streams {
			h := ms.Node(node)
			last := ^uint64(0)
			for _, in := range s {
				if in.PC&lineMask != last {
					last = in.PC & lineMask
					res := h.IFetch(in.PC, at[node])
					at[node] = max(at[node]+1, res.Done)
				}
			}
		}
	})
	if err != nil {
		return err
	}
	out["memsys.ifetch_ns"] = metric{ifetch, "ns"}

	return benchTick(tickCfg, streams[0], out)
}

// memPass times pass on fresh memory systems, as timeLoop does.
func memPass(cfg config.Config, ops int, pass func(*memsys.System, []uint64)) (float64, error) {
	var elapsed time.Duration
	n := 0
	for ; n < 3 || elapsed < microTime; n++ {
		ms, err := memsys.New(cfg)
		if err != nil {
			return 0, err
		}
		at := make([]uint64, cfg.Nodes)
		t0 := time.Now()
		pass(ms, at)
		elapsed += time.Since(t0)
	}
	return float64(elapsed.Nanoseconds()) / float64(n*ops), nil
}

// benchTick drives sched.Tick and cpu.(*Core).Tick by hand on a one-node
// machine running one captured process stream to completion, as
// System.Run would tick that core without fast-forward.
func benchTick(cfg config.Config, stream []trace.Instr, out map[string]metric) error {
	cfg.Nodes = 1
	var (
		elapsed                time.Duration
		ticks, retired, allocs uint64
		before, after          runtime.MemStats
		maxTicks               = uint64(len(stream))*1000 + 10_000_000
	)
	for n := 0; n < 3 || elapsed < microTime; n++ {
		sys, err := core.NewSystem(cfg)
		if err != nil {
			return err
		}
		ctx := sys.AddProcess(0, trace.NewSliceStream(stream))
		sch, c := sys.Scheduler(), sys.Core(0)
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		var now uint64
		for {
			now++
			sch.Tick(0, c, now)
			c.Tick(now)
			if c.Context() == nil && !sch.Pending(0) {
				break
			}
			if now == maxTicks {
				return fmt.Errorf("cpu tick benchmark: stream not finished after %d ticks", now)
			}
		}
		elapsed += time.Since(t0)
		runtime.ReadMemStats(&after)
		ticks += now
		retired += ctx.Retired
		allocs += after.Mallocs - before.Mallocs
	}
	if retired == 0 {
		return fmt.Errorf("cpu tick benchmark: no instruction retired")
	}
	out["cpu.tick_ns"] = metric{float64(elapsed.Nanoseconds()) / float64(ticks), "ns"}
	out["cpu.ticks_per_kinstr"] = metric{1000 * float64(ticks) / float64(retired), "count"}
	out["cpu.allocs_per_kinstr"] = metric{1000 * float64(allocs) / float64(retired), "count"}
	return nil
}
