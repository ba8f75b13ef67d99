package cpu

import (
	"repro/internal/config"
	"repro/internal/memsys"
	"repro/internal/stats"
	"repro/internal/trace"
)

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// live reports whether seq names an entry currently in the window.
func (c *Core) live(seq uint64) bool { return seq >= c.headSeq && seq < c.tailSeq }

// prodReady reports whether the producer identified by seq has its result
// available at cycle now. Retired producers are always ready.
func (c *Core) prodReady(seq, now uint64) bool {
	if seq == noProd || seq < c.headSeq || seq >= c.tailSeq {
		return true
	}
	j := seq & c.robMask
	return c.rState[j] == stExec && c.rComplete[j] <= now
}

func (c *Core) srcsReady(i, now uint64) bool {
	return c.prodReady(c.rProd1[i], now) && c.prodReady(c.rProd2[i], now)
}

// ---------------------------------------------------------------- fetch --

func (c *Core) fetchStage(now uint64) {
	if c.pendingSys || c.streamEnded {
		return
	}
	if c.blockBranch != 0 {
		// Fetch is halted behind a mispredicted branch; resolution is
		// detected here or at the branch's retirement.
		if c.live(c.blockBranch) {
			i := c.blockBranch & c.robMask
			if c.rState[i] == stExec && c.rComplete[i] <= now {
				c.resumeAt = c.rComplete[i] + uint64(c.cfg.BranchRestart)
				c.blockBranch = 0
			} else {
				c.stallInstr = false
				return
			}
		} else {
			c.blockBranch = 0
		}
	}
	if now < c.resumeAt {
		c.stallInstr = false
		return
	}
	if now < c.fetchReady {
		c.stallInstr = true
		return
	}
	lineShift := c.mem.L1I().LineShift()
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if len(c.fetchQ)-c.fqHead >= c.cfg.FetchBufferEntries {
			return
		}
		if c.unresolved >= c.cfg.MaxSpeculatedBr {
			c.stallInstr = false
			return
		}
		// The instruction buffer is a reused field: a local escapes to the
		// heap through the Stream interface call, at one allocation per
		// fetched instruction (the simulator's dominant allocation site).
		in := &c.inScratch
		*in = trace.Instr{}
		if !c.ctx.Stream.Next(in) {
			c.streamEnded = true
			return
		}
		if in.Op == trace.OpSyscall {
			c.pendingSys = true
			c.pendingSysNs = in.Latency
			return
		}
		avail := now + 1
		stop := false
		if line := in.PC >> lineShift; !c.lineValid || line != c.curLine {
			res := c.mem.IFetch(in.PC, now)
			c.curLine, c.lineValid = line, true
			if res.Done > avail {
				avail = res.Done
				c.fetchReady = res.Done
				c.stallInstr = true
				stop = true // the rest of this line arrives later
			}
		}
		mis := false
		if in.Op.IsBranch() {
			mis = !c.pred.PredictAndUpdate(in)
			c.unresolved++
			if c.cfg.BTBPrefetch && !mis && in.Taken && in.Target>>lineShift != c.curLine {
				// BTB-directed prefetch of the predicted target's line
				// (correct predictions only: wrong-path fetch is not
				// simulated, matching the trace-driven methodology).
				c.mem.PrefetchInstr(in.Target, now)
			}
		}
		c.fetchQ = append(c.fetchQ, fqEntry{in: *in, fetchDone: avail, mispred: mis})
		if mis {
			// Trace-driven: no wrong-path fetch; stall until resolution.
			c.stallInstr = false
			return
		}
		if stop {
			return
		}
	}
}

// -------------------------------------------------------------- dispatch --

func (c *Core) dispatchStage(now uint64) {
	for n := 0; n < c.cfg.IssueWidth; n++ {
		if c.fqHead >= len(c.fetchQ) {
			break
		}
		fe := &c.fetchQ[c.fqHead]
		if fe.fetchDone > now {
			break
		}
		if c.robLen() >= c.cfg.WindowSize {
			break
		}
		isMem := fe.in.Op.IsMem()
		if isMem && c.memInROB >= c.cfg.MemQueueSize {
			break
		}
		seq := c.tailSeq
		i := seq & c.robMask
		c.rIn[i] = fe.in
		c.rOp[i] = fe.in.Op
		c.rState[i] = stWaiting
		flags := uint8(0)
		if fe.mispred {
			flags = fMispred
		}
		c.rFlags[i] = flags
		c.rFetchDone[i] = fe.fetchDone
		c.rProd1[i], c.rProd2[i] = noProd, noProd
		c.rComplete[i] = 0
		c.rAddrDone[i] = 0
		c.rLineAddr[i] = 0
		c.rClass[i] = 0
		if s := fe.in.Src1; s != trace.NoReg {
			c.rProd1[i] = c.rename[s]
		}
		if s := fe.in.Src2; s != trace.NoReg {
			c.rProd2[i] = c.rename[s]
		}
		if d := fe.in.Dest; d != trace.NoReg {
			c.rename[d] = seq
		}
		if isMem {
			c.memInROB++
		}
		switch fe.in.Op {
		case trace.OpMemBar, trace.OpWriteBar, trace.OpLockAcquire, trace.OpLockRelease,
			trace.OpPrefetch, trace.OpPrefetchX, trace.OpFlush:
			// These execute at retirement (fences, locks, hints); mark them
			// executed so they do not block the in-order issue scan.
			c.rState[i] = stExec
			c.rComplete[i] = fe.fetchDone
		}
		switch fe.in.Op {
		case trace.OpMemBar, trace.OpLockAcquire:
			c.fenceCount++
		}
		if c.rState[i] != stExec {
			c.waiting++
		}
		if c.schedOn {
			c.schedEnter(i)
		}
		if fe.mispred {
			c.blockBranch = seq
		}
		c.tailSeq++
		c.fqHead++
	}
	if c.fqHead >= len(c.fetchQ) {
		c.fetchQ = c.fetchQ[:0]
		c.fqHead = 0
	}
}

// ----------------------------------------------------------------- issue --

// issueStage starts execution of ready instructions in program order,
// subject to functional units, issue width, and the memory consistency
// model. On an out-of-order RC core with no fence in flight the ordering
// flags are irrelevant and issueReady walks only the scheduler's ready
// set; otherwise the generic walk visits the window maintaining the
// ordering flags each model needs, so consistency checks are O(1) per
// instruction.
func (c *Core) issueStage(now uint64) {
	if c.waiting == 0 {
		// Every in-window entry is already executing: the walk would only
		// recompute ordering flags nobody consumes.
		return
	}
	intFree, fpFree, agFree := c.cfg.IntALUs, c.cfg.FPUs, c.cfg.AddrGenUnits
	if c.cfg.InfiniteFUs {
		intFree, fpFree, agFree = 1<<30, 1<<30, 1<<30
	}
	budget := c.cfg.IssueWidth
	if c.schedOn && c.fenceCount == 0 {
		c.issueReady(now, intFree, fpFree, agFree, budget)
		return
	}

	// Entries younger than the last non-executing one contribute ordering
	// flags nobody consumes, so the walk can stop once it has visited all
	// c.waiting of them instead of walking to the window tail.
	remaining := c.waiting
	olderLoadUnperformed := false
	olderMemUnperformed := false
	olderFence := false // unretired MB or lock acquire ahead of this point

	for seq := c.headSeq; seq < c.tailSeq && budget > 0; seq++ {
		i := seq & c.robMask
		if c.rState[i] != stExec {
			remaining--
			c.IssueExamined++
		}

		// Ordering flags are updated after the entry is considered, below.
		op := c.rOp[i]
		switch op {
		case trace.OpIntALU, trace.OpFPALU:
			if c.rState[i] == stExec {
				break
			}
			if c.rFetchDone[i] > now || !c.srcsReady(i, now) {
				if c.cfg.InOrder {
					return
				}
				break
			}
			lat, free := c.cfg.IntLatency, &intFree
			if op == trace.OpFPALU {
				lat, free = c.cfg.FPLatency, &fpFree
			}
			if *free == 0 {
				if c.cfg.InOrder {
					return
				}
				break
			}
			*free--
			budget--
			c.markExec(i, now+uint64(lat))

		case trace.OpBranch, trace.OpJump, trace.OpCall, trace.OpReturn:
			if c.rState[i] == stExec {
				break
			}
			if c.rFetchDone[i] > now || !c.srcsReady(i, now) || intFree == 0 {
				if c.cfg.InOrder {
					return
				}
				break
			}
			intFree--
			budget--
			c.markExec(i, now+uint64(c.cfg.IntLatency))

		case trace.OpLoad:
			done := c.issueLoad(i, now, &agFree, &budget,
				olderLoadUnperformed, olderMemUnperformed, olderFence)
			if !done && c.cfg.InOrder {
				return
			}

		case trace.OpStore:
			// Stores execute (address + data ready) here; the memory
			// access happens at retirement per the consistency model.
			if c.rState[i] == stExec {
				break
			}
			if c.rFetchDone[i] > now || !c.srcsReady(i, now) {
				if c.cfg.InOrder {
					return
				}
				break
			}
			if c.rAddrDone[i] == 0 {
				if agFree == 0 {
					if c.cfg.InOrder {
						return
					}
					break
				}
				agFree--
				budget--
				c.setAddrDone(i, now+1)
				break
			}
			if c.rAddrDone[i] <= now {
				c.execStore(i, now)
			}

		default:
			// Fences, locks and hints were marked executed at dispatch.
		}

		// Update ordering flags for younger instructions.
		switch op {
		case trace.OpLoad:
			if !(c.rFlags[i]&fIssuedMem != 0 && c.rComplete[i] <= now) {
				olderLoadUnperformed = true
				olderMemUnperformed = true
			}
		case trace.OpStore:
			// An in-window store is not yet globally performed (it issues
			// at retirement at the earliest).
			olderMemUnperformed = true
		case trace.OpMemBar, trace.OpLockAcquire:
			olderFence = true
		}
		if remaining == 0 {
			break
		}
	}
}

// issueReady is the issue stage of an out-of-order core under RC with no
// fence in flight. Loads are never blocked by older accesses, so only
// entries whose issue key has passed can act: the walk visits the ready
// set oldest-first, skipping the classes whose functional units this
// cycle has used up. Decisions (and so every memory access, in order) are
// identical to the generic walk's.
func (c *Core) issueReady(now uint64, intFree, fpFree, agFree, budget int) {
	// cm masks out the classes whose units this cycle has used up.
	cm := [nClasses]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	for seq := c.headSeq; budget > 0; seq++ {
		var ok bool
		if seq, ok = c.nextReady(seq, c.tailSeq, &cm); !ok {
			return
		}
		i := seq & c.robMask
		c.IssueExamined++
		switch op := c.rOp[i]; op {
		case trace.OpIntALU, trace.OpFPALU, trace.OpBranch, trace.OpJump, trace.OpCall, trace.OpReturn:
			lat, free, cls := c.cfg.IntLatency, &intFree, clsInt
			if op == trace.OpFPALU {
				lat, free, cls = c.cfg.FPLatency, &fpFree, clsFP
			}
			if *free == 0 {
				continue
			}
			*free--
			budget--
			c.markExec(i, now+uint64(lat))
			if *free == 0 {
				cm[cls] = 0
			}

		case trace.OpLoad:
			if c.rAddrDone[i] == 0 {
				if agFree == 0 {
					continue
				}
				agFree--
				budget--
				c.setAddrDone(i, now+1)
				if agFree == 0 {
					cm[clsAG] = 0
				}
				continue
			}
			// The address is ready and no fence is in flight: the access
			// is always allowed under RC.
			c.readMem(i, now, false)

		case trace.OpStore:
			// The operands are rechecked: the second phase is keyed on the
			// address alone, like the generic walk's store case.
			if c.rFetchDone[i] > now || !c.srcsReady(i, now) {
				continue
			}
			if c.rAddrDone[i] == 0 {
				if agFree == 0 {
					continue
				}
				agFree--
				budget--
				c.setAddrDone(i, now+1)
				if agFree == 0 {
					cm[clsAG] = 0
				}
				continue
			}
			c.execStore(i, now)
		}
	}
}

// execStore completes a store's execution once its address is ready
// (rAddrDone <= now); the memory access happens at retirement.
func (c *Core) execStore(i, now uint64) {
	c.markExec(i, c.rAddrDone[i])
	if c.cfg.ConsistencyOpts != config.ImplPlain && c.rFlags[i]&fPrefetch == 0 {
		// Hardware prefetch from the window: request ownership early for
		// stores blocked by consistency/retirement.
		c.mem.Prefetch(c.rIn[i].Addr, c.rIn[i].PC, now, true, c.inCS())
		c.rFlags[i] |= fPrefetch
	}
}

// readMem performs a load's cache access (its second phase) at cycle now;
// spec marks a load issued past an ordering constraint.
func (c *Core) readMem(i, now uint64, spec bool) {
	if c.cfg.DebugChecks && !spec {
		c.dbgCheckLoadBind(now, c.rIn[i].PC)
	}
	res := c.mem.DataRead(c.rIn[i].Addr, c.rIn[i].PC, now, c.inCS())
	c.rFlags[i] |= fIssuedMem
	c.rClass[i] = res.Class
	if res.TLBMiss {
		c.rFlags[i] |= fTLBMiss
	}
	c.rLineAddr[i] = res.LineAddr // physical, as delivered by invalidation hooks
	if spec {
		c.rFlags[i] |= fSpecLoad
		c.SpecLoads++
	}
	c.markExec(i, res.Done)
	if c.ctx.tx != nil {
		c.trackRead(res.LineAddr)
	}
}

// issueLoad handles the two-phase (address generation, then cache access)
// execution of a load under the configured consistency model. It returns
// true when the load made progress this cycle. i is the load's ring index.
func (c *Core) issueLoad(i, now uint64, agFree, budget *int,
	olderLoadUnperformed, olderMemUnperformed, olderFence bool) bool {

	if c.rFlags[i]&fIssuedMem != 0 {
		return true
	}
	if c.rFetchDone[i] > now {
		return false
	}
	if c.rAddrDone[i] == 0 {
		if !c.srcsReady(i, now) || *agFree == 0 {
			return false
		}
		*agFree--
		*budget--
		c.setAddrDone(i, now+1)
		return true
	}
	if c.rAddrDone[i] > now {
		return false
	}

	allowed := false
	switch c.cfg.Consistency {
	case config.RC:
		allowed = !olderFence
	case config.PC:
		allowed = !olderLoadUnperformed && !olderFence
	case config.SC:
		allowed = !olderMemUnperformed && !olderFence
	}
	spec := false
	if !allowed {
		switch c.cfg.ConsistencyOpts {
		case config.ImplPlain:
			return false
		case config.ImplPrefetch:
			if c.rFlags[i]&fPrefetch == 0 {
				c.mem.Prefetch(c.rIn[i].Addr, c.rIn[i].PC, now, false, c.inCS())
				c.rFlags[i] |= fPrefetch
			}
			return false
		case config.ImplSpeculative:
			spec = true
		}
	}
	c.readMem(i, now, spec)
	return true
}

func (c *Core) inCS() bool { return c.ctx != nil && c.ctx.csDepth > 0 }

// ---------------------------------------------------------------- retire --

func (c *Core) retireStage(now uint64) {
	width := c.cfg.IssueWidth
	retired := 0
	var stallCat stats.Category
	stalled := false
	for retired < width && c.robLen() > 0 {
		seq := c.headSeq
		i := seq & c.robMask
		done := c.rComplete[i]
		ok, cat := c.tryRetire(i, now)
		if c.rState[i] == stExec && c.rComplete[i] != done {
			// A lock operation or SC store performed at the head.
			c.retimed(seq)
		}
		if !ok {
			stallCat, stalled = cat, true
			break
		}
		op := c.rOp[i]
		if op.IsMem() {
			c.memInROB--
		}
		switch op {
		case trace.OpMemBar, trace.OpLockAcquire:
			c.fenceCount--
		}
		if op.IsBranch() {
			c.unresolved--
			if seq == c.blockBranch {
				c.resumeAt = c.rComplete[i] + uint64(c.cfg.BranchRestart)
				c.blockBranch = 0
			}
		}
		c.ctx.Retired++
		c.Retired++
		if c.trc != nil {
			c.trc.RetireSlot(c.id, c.rIn[i].PC, 1/float64(width))
		}
		c.headSeq++
		retired++
		if c.rComplete[i] > now {
			// A barrier retiring before its (re-fetch) completion: its
			// consumers now treat it as retired.
			c.retimed(seq)
		}
	}
	c.Bk[stats.Busy] += float64(retired) / float64(width)
	if retired == width {
		return
	}
	frac := float64(width-retired) / float64(width)
	stallPC := uint64(0)
	if stalled {
		stallPC = c.rIn[c.headSeq&c.robMask].PC
	} else {
		// Window empty: charge the fetch-side reason (PC 0 marks the
		// frontend in the stall profile).
		if c.pendingSys || c.streamEnded {
			return // transition cycles; the scheduler accounts switches
		}
		if c.stallInstr {
			stallCat = stats.Instr
		} else {
			stallCat = stats.CPUStall
		}
	}
	c.Bk[stallCat] += frac
	if c.trc != nil {
		c.trc.StallSlot(c.id, c.ctx.ID, stallPC, stallCat, frac, now)
	}
}

// readCategory maps a load's service point to its stall category.
func readCategory(class memsys.Class, tlbMiss bool) stats.Category {
	if tlbMiss && class == memsys.ClassL1 {
		return stats.ReadDTLB
	}
	switch class {
	case memsys.ClassL1:
		return stats.ReadL1
	case memsys.ClassL2:
		return stats.ReadL2
	case memsys.ClassLocal:
		return stats.ReadLocal
	case memsys.ClassRemote:
		return stats.ReadRemote
	case memsys.ClassRemoteDirty:
		return stats.ReadDirty
	}
	return stats.ReadL1
}

// tryRetire attempts to retire the head entry (ring index i), returning
// the stall category on failure.
func (c *Core) tryRetire(i, now uint64) (bool, stats.Category) {
	switch c.rOp[i] {
	case trace.OpLoad:
		if c.rState[i] != stExec {
			if c.rFetchDone[i] > now {
				return false, stats.Instr
			}
			return false, stats.ReadL1 // address generation / dependence
		}
		if c.rFlags[i]&fViolated != 0 {
			// Speculative-load ordering violation: squash and re-execute
			// from this load (recovery as for branch mispredictions).
			c.rollback(c.headSeq, now)
			c.Violations++
			return false, stats.ReadL1
		}
		if c.rComplete[i] > now {
			return false, readCategory(c.rClass[i], c.rFlags[i]&fTLBMiss != 0)
		}
		return true, 0

	case trace.OpStore:
		if c.rState[i] != stExec {
			if c.rFetchDone[i] > now {
				return false, stats.Instr
			}
			return false, stats.ReadL1 // address generation / dependence
		}
		if c.cfg.Consistency == config.SC {
			// SC: the store performs at the head of the window and blocks
			// retirement until globally performed.
			if c.rFlags[i]&fIssuedMem == 0 {
				res := c.mem.DataWrite(c.rIn[i].Addr, c.rIn[i].PC, now, c.inCS())
				c.rFlags[i] |= fIssuedMem
				c.rComplete[i] = res.Done
				c.rClass[i] = res.Class
				if c.cfg.DebugChecks {
					c.dbgCheckStorePerform(c.rComplete[i], c.rIn[i].PC)
				}
				if c.ctx.tx != nil {
					c.trackWrite(res.LineAddr)
				}
			}
			if c.rComplete[i] > now {
				return false, stats.Write
			}
			return true, 0
		}
		// PC/RC: retire into the write buffer.
		if c.wbufLen() >= c.cfg.WriteBufEntries {
			return false, stats.Write
		}
		c.wbuf = append(c.wbuf, wbufEntry{addr: c.rIn[i].Addr, pc: c.rIn[i].PC, inCS: c.inCS()})
		return true, 0

	case trace.OpLockAcquire:
		if c.rFetchDone[i] > now {
			return false, stats.Instr
		}
		return c.latch.acquire(c, i, now)

	case trace.OpLockRelease:
		if c.rFetchDone[i] > now {
			return false, stats.Instr
		}
		return c.latch.release(c, i, now)

	case trace.OpMemBar:
		// Full barrier: all prior memory operations performed and the
		// write buffer drained (older window entries retired by induction).
		if c.wbufLen() != 0 {
			return false, stats.Sync
		}
		return true, 0

	case trace.OpWriteBar:
		if c.wbufLen() >= c.cfg.WriteBufEntries {
			return false, stats.Sync
		}
		c.wbuf = append(c.wbuf, wbufEntry{isWMB: true})
		return true, 0

	case trace.OpPrefetch, trace.OpPrefetchX:
		if c.rFetchDone[i] > now {
			return false, stats.Instr
		}
		if c.rFlags[i]&fIssuedMem == 0 {
			c.mem.Prefetch(c.rIn[i].Addr, c.rIn[i].PC, now, c.rOp[i] == trace.OpPrefetchX, c.inCS())
			c.rFlags[i] |= fIssuedMem
		}
		return true, 0

	case trace.OpFlush:
		if c.rFetchDone[i] > now {
			return false, stats.Instr
		}
		if c.cfg.Consistency == config.SC {
			// Under SC all prior stores have performed by the time the
			// flush reaches the head; execute directly.
			c.mem.Flush(c.rIn[i].Addr, now)
			return true, 0
		}
		// PC/RC: queue behind the buffered stores so the flush executes
		// once they perform, without stalling retirement (the hint is off
		// the critical path, as in the paper).
		if c.wbufLen() >= c.cfg.WriteBufEntries {
			return false, stats.Write
		}
		c.wbuf = append(c.wbuf, wbufEntry{addr: c.rIn[i].Addr, isFlush: true})
		return true, 0

	default: // ALU and branches
		if c.rState[i] != stExec {
			if c.rFetchDone[i] > now {
				return false, stats.Instr
			}
			return false, stats.CPUStall
		}
		if c.rComplete[i] > now {
			return false, stats.CPUStall
		}
		return true, 0
	}
}

// rollback squashes the window from fromSeq on, resetting the squashed
// instructions for re-execution after a pipeline-restart penalty (the
// recovery mechanism is the one used for branch mispredictions).
func (c *Core) rollback(fromSeq, now uint64) {
	c.Rollbacks++
	width := uint64(c.cfg.IssueWidth)
	for seq := fromSeq; seq < c.tailSeq; seq++ {
		i := seq & c.robMask
		wasExec := c.rState[i] == stExec
		refetch := now + uint64(c.cfg.BranchRestart) + (seq-fromSeq)/width
		c.rFetchDone[i] = maxU(c.rFetchDone[i], refetch)
		c.rState[i] = stWaiting
		c.rFlags[i] &= fMispred
		c.rComplete[i] = 0
		c.rAddrDone[i] = 0
		c.rLineAddr[i] = 0
		c.rClass[i] = 0
		switch c.rOp[i] {
		case trace.OpMemBar, trace.OpWriteBar, trace.OpLockAcquire, trace.OpLockRelease,
			trace.OpPrefetch, trace.OpPrefetchX, trace.OpFlush:
			c.rState[i] = stExec
			c.rComplete[i] = c.rFetchDone[i]
		}
		if wasExec && c.rState[i] != stExec {
			c.waiting++
		}
	}
	// Unsquashed entries keep their schedule: a consumer is never older
	// than its producer, so none of them consumes a squashed entry's
	// completion time.
	c.schedSquashed(fromSeq)
}

// ---------------------------------------------------------- write buffer --

// drainWbuf issues and retires buffered stores per the consistency model:
// RC overlaps stores freely between WMB markers; PC issues one store at a
// time in FIFO order.
func (c *Core) drainWbuf(now uint64) {
	if c.wbufLen() == 0 {
		return
	}
	switch c.cfg.Consistency {
	case config.RC:
		allPriorDone := true
		for i := c.wbHead; i < len(c.wbuf); i++ {
			w := &c.wbuf[i]
			if w.isWMB {
				if !allPriorDone {
					break
				}
				continue
			}
			if w.isFlush {
				continue
			}
			if !w.issued {
				res := c.mem.DataWrite(w.addr, w.pc, now, w.inCS)
				w.issued = true
				w.done = res.Done
				if c.ctx.tx != nil {
					c.trackWrite(res.LineAddr)
				}
			}
			if w.done > now {
				allPriorDone = false
			}
		}
	case config.PC:
		for i := c.wbHead; i < len(c.wbuf); i++ {
			w := &c.wbuf[i]
			if w.isWMB || w.isFlush {
				continue
			}
			if !w.issued {
				res := c.mem.DataWrite(w.addr, w.pc, now, w.inCS)
				w.issued = true
				w.done = res.Done
				if c.cfg.DebugChecks {
					c.dbgCheckStoreFIFO(now, w.done, w.pc)
				}
				if c.ctx.tx != nil {
					c.trackWrite(res.LineAddr)
				}
			}
			// Strict FIFO: the next store may not issue until this one
			// has performed.
			if w.done > now {
				break
			}
		}
	}
	// Retire performed entries from the front. A flush at the front has
	// seen all prior stores perform; it executes now, off the critical
	// path.
	for c.wbufLen() > 0 {
		w := c.wbuf[c.wbHead]
		switch {
		case w.isWMB:
		case w.isFlush:
			c.mem.Flush(w.addr, now)
		case w.issued && w.done <= now:
			if w.release {
				c.locks.Release(w.addr, c.ctx.ID, w.done)
				if c.trc != nil {
					c.trc.LockReleased(c.id, c.ctx.ID, w.addr, w.done)
				}
				if w.flushAfter {
					// Hints policy: push the released latch line home.
					c.mem.Flush(w.addr, now)
				}
			}
		default:
			return
		}
		c.wbHead++
	}
	if c.wbHead == len(c.wbuf) {
		// Keep the backing array: the buffer refills constantly and a nil
		// reset made every refill reallocate.
		c.wbuf = c.wbuf[:0]
		c.wbHead = 0
	}
}
