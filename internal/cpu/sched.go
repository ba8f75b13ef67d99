package cpu

import (
	"math/bits"

	"repro/internal/config"
	"repro/internal/trace"
)

// The issue scheduler is the event-driven active set behind issueStage and
// robNextEvent on out-of-order RC cores. For every waiting window entry it
// tracks where the entry stands relative to its issue key — the cycle its
// next issue step can first happen: operands and fetch for a first phase
// (address generation, or an ALU op or branch executing), the address for
// a load's or store's second phase:
//
//   - parked: a producer has not issued, so no key exists yet. The entry
//     is registered in that producer's wake bitmap, and the producer
//     reschedules its parked consumers when it issues.
//   - timed: the key is in the future. Keys within wheelSlots cycles sit
//     in issueWheel, a timing wheel of per-cycle bitmaps over the ROB
//     ring; later ones (long misses) in issueQ, a min-heap on the key.
//   - ready: the key has passed; the entry's bit is set in readyBits, a
//     bitmap over the ROB ring per functional-unit class, which the issue
//     stage walks oldest-first.
//
// The completion times of executing entries are kept the same way
// (doneWheel, doneQ), so NextEvent reads the next completion without
// walking the window.
//
// promote runs first in every tick: it moves the due wheel slots and heap
// nodes into the ready set and drops past completions, and advances
// wBase to now, so every wheel entry's key lies in (wBase,
// wBase+wheelSlots) and one slot never mixes two cycles. Issue-side wheel
// and ready entries are removed exactly when an entry is rescheduled;
// heap nodes (key<<sShift | ring index) and completion-wheel bits are
// invalidated lazily — dropped when they surface and no longer match
// their entry (issued, rescheduled, squashed, retired or retimed).
//
// The state is derived purely from the ROB. schedule recomputes one entry
// from its producers, and every site that changes an entry's state or
// timing calls it: dispatch (schedEnter), both issue walks (markExec,
// setAddrDone), retirement-time retiming of a lock operation (retimed)
// and rollback (schedSquashed). Restore rebuilds it from the restored
// window, so none of it is checkpointed.

// Scheduler membership of a window entry. A ready entry is filed under the
// class of the functional unit its next step needs (sReady + class), so
// once a class's units are used up for the cycle the walk skips its
// entries.
const (
	sNone   uint8 = iota // executing
	sParked              // waiting on a producer that has not issued
	sWheel               // key in the future, within the wheel
	sHeaped              // key beyond the wheel; a node in issueQ
	sReady               // key passed: sReady + class, bit set in readyBits
)

// wheelSlots is the timing wheels' span in cycles (one bit per slot in
// the occupancy words).
const wheelSlots = 64

// Ready classes: the unit an entry's next step occupies.
const (
	clsInt = iota // integer ALU and branches
	clsFP         // floating-point ALU
	clsAG         // address generation (a load's or store's first phase)
	clsMem        // a load's cache access or a store's completion: no unit
	nClasses
)

// schedHeap is a binary min-heap of key<<shift | ring-index nodes.
type schedHeap []uint64

func (h *schedHeap) push(n uint64) {
	q := append(*h, n)
	k := len(q) - 1
	for k > 0 {
		p := (k - 1) / 2
		if q[p] <= n {
			break
		}
		q[k] = q[p]
		k = p
	}
	q[k] = n
	*h = q
}

func (h *schedHeap) pop() {
	q := *h
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	k := 0
	for {
		c := 2*k + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1] < q[c] {
			c++
		}
		if last <= q[c] {
			break
		}
		q[k] = q[c]
		k = c
	}
	if n > 0 {
		q[k] = last
	}
	*h = q
}

// initSched allocates the scheduler for a ROB ring of capacity robCap.
// Only out-of-order RC cores use it: in-order cores stop at the first
// waiting entry of a window of at most 2*width+8 entries, and SC and PC
// need the generic walk's ordering flags.
func (c *Core) initSched(robCap int) {
	c.schedOn = c.cfg.Consistency == config.RC && !c.cfg.InOrder
	words := (robCap + 63) / 64
	c.sWords = uint64(words)
	c.sSpan = uint64(min(robCap, 64))
	c.sShift = uint(bits.TrailingZeros(uint(robCap)))
	c.sWhere = make([]uint8, robCap)
	c.sKey = make([]uint64, robCap)
	b := make([]uint64, (nClasses+robCap+2*wheelSlots)*words)
	c.readyBits, b = b[:nClasses*words], b[nClasses*words:]
	c.issueWheel, b = b[:wheelSlots*words], b[wheelSlots*words:]
	c.doneWheel, c.wakeBits = b[:wheelSlots*words], b[wheelSlots*words:]
	c.issueQ = make(schedHeap, 0, robCap)
	c.doneQ = make(schedHeap, 0, robCap)
}

// resetSched empties the scheduler (window empty or about to be rebuilt).
func (c *Core) resetSched() {
	clear(c.sWhere)
	clear(c.readyBits)
	clear(c.issueWheel)
	clear(c.doneWheel)
	clear(c.wakeBits)
	c.issueOcc, c.doneOcc = 0, 0
	c.wBase = c.nowCycle
	c.issueQ = c.issueQ[:0]
	c.doneQ = c.doneQ[:0]
}

// schedEnter adds the entry just dispatched at ring index i.
func (c *Core) schedEnter(i uint64) {
	row := c.wakeBits[i*c.sWords : (i+1)*c.sWords]
	for k := range row {
		row[k] = 0
	}
	if c.rState[i] == stExec {
		c.sWhere[i] = sNone
		c.pushDone(i)
		return
	}
	c.schedule(i)
}

// schedule recomputes where waiting entry i stands. The key mirrors
// entryIssueEvent under RC with no fence in flight, so the NextEvent peek
// equals the window walk.
func (c *Core) schedule(i uint64) {
	c.unsched(i)
	key := c.rFetchDone[i]
	head, tail, mask := c.headSeq, c.tailSeq, c.robMask
	// noProd (0) is below every live sequence number.
	if p := c.rProd1[i]; p >= head && p < tail {
		j := p & mask
		if c.rState[j] != stExec {
			c.park(i, j)
			return
		}
		key = max(key, c.rComplete[j])
	}
	if p := c.rProd2[i]; p >= head && p < tail {
		j := p & mask
		if c.rState[j] != stExec {
			c.park(i, j)
			return
		}
		key = max(key, c.rComplete[j])
	}
	if a := c.rAddrDone[i]; a != 0 {
		key = a // a load's or store's second phase
	}
	if key <= c.nowCycle {
		c.setReady(i)
		return
	}
	c.sKey[i] = key
	if key < c.wBase+wheelSlots {
		c.sWhere[i] = sWheel
		s := key % wheelSlots
		c.issueWheel[s*c.sWords+i>>6] |= 1 << (i & 63)
		c.issueOcc |= 1 << s
		return
	}
	c.sWhere[i] = sHeaped
	c.issueQ.push(key<<c.sShift | i)
}

// park registers waiting entry i with producer j, which has not issued.
func (c *Core) park(i, j uint64) {
	c.sWhere[i] = sParked
	c.wakeBits[j*c.sWords+i>>6] |= 1 << (i & 63)
}

// setReady files waiting entry i in the ready set under the class of its
// next step.
func (c *Core) setReady(i uint64) {
	cls := uint64(clsInt)
	switch c.rOp[i] {
	case trace.OpFPALU:
		cls = clsFP
	case trace.OpLoad, trace.OpStore:
		cls = clsAG
		if c.rAddrDone[i] != 0 {
			cls = clsMem
		}
	}
	c.sWhere[i] = sReady + uint8(cls)
	c.readyBits[(i>>6)*nClasses+cls] |= 1 << (i & 63)
}

// unsched takes entry i out of the ready set or the issue wheel.
func (c *Core) unsched(i uint64) {
	switch w := c.sWhere[i]; {
	case w >= sReady:
		c.readyBits[(i>>6)*nClasses+uint64(w-sReady)] &^= 1 << (i & 63)
	case w == sWheel:
		s := c.sKey[i] % wheelSlots
		slot := c.issueWheel[s*c.sWords : (s+1)*c.sWords]
		slot[i>>6] &^= 1 << (i & 63)
		for _, m := range slot {
			if m != 0 {
				return
			}
		}
		c.issueOcc &^= 1 << s
	}
}

// nextReady returns the oldest sequence number in [from, to) that is ready
// in a class whose mask word in cm is all ones.
func (c *Core) nextReady(from, to uint64, cm *[nClasses]uint64) (uint64, bool) {
	for from < to {
		i := from & c.robMask
		r := (*[nClasses]uint64)(c.readyBits[(i>>6)*nClasses:])
		if m := (r[clsInt]&cm[clsInt] | r[clsFP]&cm[clsFP] | r[clsAG]&cm[clsAG] | r[clsMem]&cm[clsMem]) >> (i & 63); m != 0 {
			from += uint64(bits.TrailingZeros64(m))
			return from, from < to
		}
		from += c.sSpan - i&63
	}
	return 0, false
}

// markExec starts execution of waiting entry i, which completes at done.
// Every issue site goes through it.
func (c *Core) markExec(i, done uint64) {
	c.rState[i] = stExec
	c.waiting--
	c.rComplete[i] = done
	if !c.schedOn {
		return
	}
	c.unsched(i)
	c.sWhere[i] = sNone
	c.pushDone(i)
	// Reschedule the consumers parked on this entry.
	row := c.wakeBits[i*c.sWords : (i+1)*c.sWords]
	for k, m := range row {
		if m == 0 {
			continue
		}
		row[k] = 0
		for ; m != 0; m &= m - 1 {
			if ci := uint64(k)<<6 | uint64(bits.TrailingZeros64(m)); c.sWhere[ci] == sParked {
				c.schedule(ci)
			}
		}
	}
}

// setAddrDone records a load's or store's address generation, moving
// entry i to its second issue phase.
func (c *Core) setAddrDone(i, t uint64) {
	c.rAddrDone[i] = t
	if c.schedOn {
		c.schedule(i)
	}
}

// retimed follows a change to the completion time of executing entry seq
// (a lock operation or SC store performing at the head), or its retiring
// with that completion still ahead: its waiting consumers are rescheduled.
// Such events come once per lock operation at most, so the consumers are
// found by a window walk rather than registered.
func (c *Core) retimed(seq uint64) {
	if !c.schedOn {
		return
	}
	if c.live(seq) {
		c.pushDone(seq & c.robMask)
	}
	for s := seq + 1; s < c.tailSeq; s++ {
		j := s & c.robMask
		if c.rState[j] != stExec && (c.rProd1[j] == seq || c.rProd2[j] == seq) {
			c.schedule(j)
		}
	}
}

// pushDone records executing entry i's completion time.
func (c *Core) pushDone(i uint64) {
	t := c.rComplete[i]
	switch {
	case t <= c.nowCycle:
	case t < c.wBase+wheelSlots:
		s := t % wheelSlots
		c.doneWheel[s*c.sWords+i>>6] |= 1 << (i & 63)
		c.doneOcc |= 1 << s
	default:
		c.doneQ.push(t<<c.sShift | i)
	}
}

// schedSquashed reschedules the entries [fromSeq, tailSeq) that rollback
// just reset for re-execution.
func (c *Core) schedSquashed(fromSeq uint64) {
	if !c.schedOn {
		return
	}
	for seq := fromSeq; seq < c.tailSeq; seq++ {
		i := seq & c.robMask
		if c.rState[i] == stExec {
			c.pushDone(i) // a fence or hint, executing from dispatch
			continue
		}
		c.schedule(i)
	}
}

// rebuildSched derives the scheduler from the window (after Restore).
func (c *Core) rebuildSched() {
	c.resetSched()
	if !c.schedOn {
		return
	}
	for seq := c.headSeq; seq < c.tailSeq; seq++ {
		c.schedEnter(seq & c.robMask)
	}
}

// wheelKey returns the key of the earliest occupied slot in occ: wheel
// keys lie in (wBase, wBase+wheelSlots).
func (c *Core) wheelKey(occ uint64) uint64 {
	first := c.wBase + 1
	return first + uint64(bits.TrailingZeros64(bits.RotateLeft64(occ, -int(first%wheelSlots))))
}

// promote starts a tick at now: it moves the wheel slots and heap nodes
// whose issue key has arrived into the ready set, drops completions that
// are no longer ahead, and advances the wheels' base to now.
func (c *Core) promote(now uint64) {
	if d := now - c.wBase; d > 0 {
		due := ^uint64(0)
		if d < wheelSlots {
			due = bits.RotateLeft64(1<<d-1, int((c.wBase+1)%wheelSlots))
		}
		w := c.sWords
		for m := c.issueOcc & due; m != 0; m &= m - 1 {
			s := uint64(bits.TrailingZeros64(m))
			slot := c.issueWheel[s*w : (s+1)*w]
			for k, b := range slot {
				for ; b != 0; b &= b - 1 {
					c.setReady(uint64(k)<<6 | uint64(bits.TrailingZeros64(b)))
				}
				slot[k] = 0
			}
		}
		for m := c.doneOcc & due; m != 0; m &= m - 1 {
			s := uint64(bits.TrailingZeros64(m))
			for k := s * w; k < (s+1)*w; k++ {
				c.doneWheel[k] = 0
			}
		}
		c.issueOcc &^= due
		c.doneOcc &^= due
		c.wBase = now
	}
	idx := uint64(1)<<c.sShift - 1
	for len(c.issueQ) > 0 && c.issueQ[0]>>c.sShift <= now {
		n := c.issueQ[0]
		c.issueQ.pop()
		if i := n & idx; c.sWhere[i] == sHeaped && c.sKey[i] == n>>c.sShift {
			c.setReady(i)
		}
	}
	for len(c.doneQ) > 0 && c.doneQ[0]>>c.sShift <= now {
		c.doneQ.pop()
	}
}

// executingAt reports whether ring index i holds an in-window executing
// entry that completes at t.
func (c *Core) executingAt(i, t uint64) bool {
	return (i-c.headSeq)&c.robMask < c.tailSeq-c.headSeq && c.rState[i] == stExec && c.rComplete[i] == t
}

// schedNextEvent is robNextEvent for an out-of-order RC core with no fence
// in flight: the earliest of a ready entry (now+1), the next issue key,
// and the next completion — exactly the window walk's minimum.
func (c *Core) schedNextEvent(now uint64) uint64 {
	for _, m := range c.readyBits {
		if m != 0 {
			return now + 1
		}
	}
	w := EventNever
	if c.issueOcc != 0 {
		w = c.wheelKey(c.issueOcc)
	}
	idx := uint64(1)<<c.sShift - 1
	for len(c.issueQ) > 0 {
		n := c.issueQ[0]
		if i, key := n&idx, n>>c.sShift; c.sWhere[i] == sHeaped && c.sKey[i] == key {
			w = min(w, key)
			break
		}
		c.issueQ.pop()
	}
	if w <= now {
		return now + 1
	}
	// Completion-wheel bits are checked lazily: a slot whose members all
	// moved on (or lie in the past) is emptied here.
	for c.doneOcc != 0 {
		key := c.wheelKey(c.doneOcc)
		s := key % wheelSlots
		if key > now {
			if slot := c.doneWheel[s*c.sWords : (s+1)*c.sWords]; c.firstExecutingAt(slot, key) {
				w = min(w, key)
				break
			}
		}
		for k := s * c.sWords; k < (s+1)*c.sWords; k++ {
			c.doneWheel[k] = 0
		}
		c.doneOcc &^= 1 << s
	}
	for len(c.doneQ) > 0 {
		n := c.doneQ[0]
		if i, key := n&idx, n>>c.sShift; key > now && c.executingAt(i, key) {
			w = min(w, key)
			break
		}
		c.doneQ.pop()
	}
	return max(w, now+1)
}

// firstExecutingAt drops the members of a completion-wheel slot that no
// longer complete at key, up to the first that does, and reports whether
// one does.
func (c *Core) firstExecutingAt(slot []uint64, key uint64) bool {
	for k, m := range slot {
		for ; m != 0; m &= m - 1 {
			if c.executingAt(uint64(k)<<6|uint64(bits.TrailingZeros64(m)), key) {
				slot[k] = m
				return true
			}
		}
		slot[k] = 0
	}
	return false
}
