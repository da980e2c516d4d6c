package cpu

import (
	"math/bits"

	"valuespec/internal/core"
	"valuespec/internal/isa"
	"valuespec/internal/trace"
)

// ---------------------------------------------------------------------------
// Sweep: operand sync and the verification network
//
// The sweep walks the window in age order once per cycle. Because producers
// are always older than their consumers, a single pass settles all state
// propagation for the flattened-hierarchical (parallel) network within the
// cycle; the hierarchical and retirement-based schemes are modeled as extra
// gating terms inside refreshOutput.

// sweep visits the occupied slots that are neither settled nor dormant in
// age order (sweepSeg, soa.go), syncing each entry's operands and settling
// its output validity.
func (p *Pipeline) sweep(c int64) {
	n := len(p.entries)
	if hi := p.head + p.count; hi <= n {
		p.sweepSeg(p.head, hi, c)
	} else {
		p.sweepSeg(p.head, n, c)
		p.sweepSeg(0, hi-n, c)
	}
}

// syncOperand refreshes one operand from its producer's current output view.
// Captured values persist in the reservation station: a correct captured
// value is never displaced, only upgraded to Valid when the producer
// verifies; a wrong or missing value adopts whatever the producer currently
// broadcasts.
// syncOperand returns whether it rewrote the operand's view; the bitset
// sweep uses that to re-open the owning entry's issue-recheck gate
// (slotNextTry), which assumes operand views only move through here.
func (p *Pipeline) syncOperand(o *operand) bool {
	if !o.inWindow {
		return false
	}
	if o.state == core.StateValid && o.correct {
		// Settled: a correct Valid value is never displaced or upgraded, so
		// skip the producer lookup (usually a cache miss) entirely.
		return false
	}
	// The producer's broadcast header is read through the dense outViews
	// mirror (see pubOut); occBits + slotAge stand in for used/age, which
	// they shadow exactly.
	idx := o.prodIdx
	if p.occBits[idx>>6]&(1<<(uint(idx)&63)) == 0 || p.slotAge[idx] != o.prodAge {
		return false // producer retired; the operand already holds its final value
	}
	v := &p.outViews[idx]
	changed := false
	switch {
	case o.state == core.StateInvalid:
		if v.state != core.StateInvalid {
			o.state, o.correct, o.ready, o.validAt = v.state, v.correct, v.ready, v.validAt
			changed = true
		}
	case !o.correct:
		// Holding a wrong value: adopt the producer's current broadcast
		// (possibly Invalid, meaning wait for the re-execution).
		o.state, o.correct, o.ready, o.validAt = v.state, v.correct, v.ready, v.validAt
		changed = true
	case v.correct && v.state == core.StateValid && o.state != core.StateValid:
		// Same (correct) value verified: upgrade in place.
		o.state, o.validAt = core.StateValid, v.validAt
		changed = true
	}
	if o.state.Speculative() && !o.everSpec {
		o.everSpec = true
		changed = true
	}
	return changed
}

// refreshOutput settles the validity of e's result at cycle c; pos is the
// entry's distance from the window head (for retirement-based verification).
//
// The return value is the dormant-sweep retry hint: never means the blocked
// condition can only be lifted by an already-instrumented wake
// (execution/access completion, an equality outcome, a nullification, or a
// producer republish — see pubOut); a cycle t > c means the entry is blocked
// purely on time and need not be revisited before t; c+1 means it must stay
// hot (retirement-based verification depends on the head position, which
// moves without any wake).
func (p *Pipeline) refreshOutput(e *entry, c int64, pos int) int64 {
	if e.validAt != never {
		return never // validity is monotone
	}

	switch e.cls {
	case isa.ClassStore:
		return p.refreshStore(e, c)
	case isa.ClassBranch:
		if e.resolved && e.execClean {
			e.validAt = e.resolveAt
			e.retireAt = e.validAt + int64(p.model.Lat.VerifyFreeRetire)
			p.pubOut(e)
		}
		return never // resolveBranch runs under completeExec's wake
	}

	if !e.doneExec || !e.execClean {
		return never // completion wakes; a dirty execution waits for its wave
	}
	if e.vpUsed && !e.vpDead && !e.eqDone {
		return never // own prediction must pass equality first (event wakes)
	}

	t := e.doneCycle + 1 // the write/verification stage
	if e.vpUsed && e.eqReady != never {
		t = maxi64(t, e.eqReady)
	}
	hier := p.specOn() && p.model.Verification == core.VerifyHierarchical
	retOnly := p.specOn() && p.model.Verification == core.VerifyRetirement
	hybrid := p.specOn() && p.model.Verification == core.VerifyHybrid
	specInvolved := e.vpUsed
	for s := 0; s < e.nsrc; s++ {
		o := &e.src[s]
		if o.inWindow {
			if !o.validBy(c) {
				if o.state == core.StateValid && o.validAt > c {
					return o.validAt // valid but not yet usable: pure time gate
				}
				return never // producer republish wakes
			}
			ot := o.validAt
			if o.everSpec {
				specInvolved = true
				if hier || hybrid {
					ot++ // one dependence level per cycle
				}
			}
			t = maxi64(t, ot)
		}
	}
	headBound := false
	if specInvolved && (retOnly || hybrid) {
		// Retirement-based verification: only the retire-width oldest
		// instructions can be validated each cycle.
		atHead := pos < p.cfg.IssueWidth
		if retOnly && !atHead {
			return c + 1 // head advance may release it any cycle
		}
		if hybrid {
			if atHead {
				// Retirement releases it now even if the hierarchical chain
				// has not caught up.
				t = maxi64(e.doneCycle+1, c)
			} else {
				headBound = true
			}
		}
	}
	if c < t {
		if headBound {
			return c + 1 // reaching the head releases earlier than t
		}
		return t
	}
	e.validAt = t
	e.outState = core.StateValid
	e.outCorrect = true
	if e.outReady == never || e.outReady > t {
		e.outReady = t
	}
	e.retireAt = e.validAt + int64(p.model.Lat.VerifyFreeRetire)
	p.pubOut(e)
	return never
}

// refreshStore settles a store: verified when its address is generated and
// both operands (address base and data) are valid. The return value is the
// dormant-sweep retry hint (see refreshOutput).
func (p *Pipeline) refreshStore(e *entry, c int64) int64 {
	if !e.agDone || !e.execClean {
		return never // address generation completes under completeExec's wake
	}
	t := e.agCycle
	for s := 0; s < e.nsrc; s++ {
		o := &e.src[s]
		if o.inWindow {
			if !o.validBy(c) {
				if o.state == core.StateValid && o.validAt > c {
					return o.validAt // pure time gate
				}
				return never // producer republish wakes
			}
			t = maxi64(t, o.validAt)
		}
	}
	if c < t {
		return t
	}
	e.validAt = t
	e.retireAt = e.validAt + int64(p.model.Lat.VerifyFreeRetire)
	p.pubOut(e)
	return never
}

// ---------------------------------------------------------------------------
// Retire

func (p *Pipeline) retire(c int64) {
	retired := 0
	for retired < p.cfg.IssueWidth && p.count > 0 {
		e := &p.entries[p.head]
		if e.validAt == never || e.retireAt == never || c < e.retireAt {
			return
		}
		if e.cls == isa.ClassStore {
			if p.portsUsed >= p.cfg.DCachePorts {
				return // store commit needs a data-cache port
			}
			p.portsUsed++
			p.hier.Data(uint64(e.rec.Addr) * 8)
		}
		p.emit(c, EvRetire, e)
		if p.metrics != nil {
			p.metrics.retireLat.Observe(c - e.dispatchCycle)
			p.metrics.reissueDepth.Observe(int64(maxi(e.execCount-1, 0)))
		}
		p.finishRetire(e)
		e.used = false
		clearBit(p.occBits, e.idx)
		clearBit(p.settledBits, e.idx)
		p.head = p.slot(1)
		p.count--
		retired++
		p.stats.Retired++
	}
}

// finishRetire performs retirement-time training (delayed predictor update
// and confidence update) and releases the register-producer mapping.
func (p *Pipeline) finishRetire(e *entry) {
	if e.writesReg() && e.rec.Instr.Dst != isa.R0 {
		d := e.rec.Instr.Dst
		if p.regProd[d] == e.idx && p.regProdAge[d] == e.age {
			p.regProd[d] = -1
		}
	}
	if e.vpMade && p.spec.Update == UpdateDelayed {
		p.spec.Predictor.TrainDelayed(e.rec.PC, e.vpCookie, e.vpValue, e.rec.DstVal)
		p.spec.Confidence.Update(e.rec.PC, e.vpCorrect)
	}
}

// ---------------------------------------------------------------------------
// Wakeup, selection, issue

// issue performs wakeup and selection for cycle c. Selection priority
// (Section 3.5): branches and loads first, then the rest; under the paper's
// scheme non-speculative candidates precede speculative ones within each
// group, oldest first, while the oldest-first policy ignores the speculative
// state of operands.
func (p *Pipeline) issue(c int64) {
	oldestFirst := p.specOn() && p.model.Selection == core.SelectOldestFirst

	// Readiness is pass-invariant within the cycle — granting one entry
	// never changes another's operands mid-issue — so one walk of the ready
	// bits (collectReady, soa.go) evaluates every candidate once, and the
	// priority passes below pick from the two group lists.
	selMem, selOther := p.selMem[:0], p.selOther[:0]
	n := len(p.entries)
	if hi := p.head + p.count; hi <= n {
		selMem, selOther = p.collectReady(p.head, hi, c, selMem, selOther)
	} else {
		selMem, selOther = p.collectReady(p.head, n, c, selMem, selOther)
		selMem, selOther = p.collectReady(0, hi-n, c, selMem, selOther)
	}
	p.selMem, p.selOther = selMem, selOther

	grants := 0
	for group := 0; group < 2 && grants < p.cfg.IssueWidth; group++ {
		sel := selMem
		if group == 1 {
			sel = selOther
		}
		for specPass := 0; specPass < 2 && grants < p.cfg.IssueWidth; specPass++ {
			for i := range sel {
				if grants == p.cfg.IssueWidth {
					break
				}
				cand := &sel[i]
				if cand.idx < 0 {
					continue // granted in a previous pass
				}
				// Non-speculative candidates precede speculative ones under
				// the paper's scheme; oldest-first ignores the distinction.
				if !oldestFirst && cand.spec != (specPass == 1) {
					continue
				}
				p.grantIssue(&p.entries[cand.idx], c)
				cand.idx = -1
				grants++
			}
			if oldestFirst {
				break // a single pass took candidates regardless of spec state
			}
		}
	}
	p.stats.Issues += int64(grants)
}

// selCand is one issue candidate: its ring index and whether it would
// consume a speculative input.
type selCand struct {
	idx  int32
	spec bool
}

// untilChange is the slotNextTry sentinel for "blocked until an operand view
// changes": the sweep resets the slot's gate to 0 whenever syncOperand
// rewrites one of the entry's operands, so a state-blocked candidate is
// re-evaluated exactly when something it depends on moved.
const untilChange = int64(1) << 62

// checkIssue reports whether e can issue at cycle c and whether it would
// consume a speculative input. Entry and operand state are not mutated, so
// the answer may be evaluated once per cycle and reused across selection
// passes. On failure it records in slotNextTry the earliest cycle the
// verdict could flip with the operand views held fixed — every gate below is
// either monotone in c (validAt, verify latencies, ready stamps,
// earliestIssue) or can only be lifted by an operand change, which resets
// the gate — letting collectReady skip the re-check until then.
func (p *Pipeline) checkIssue(e *entry, c int64) (ok, spec bool) {
	if e.issued || e.inFlight {
		return false, false
	}
	if c < e.earliestIssue {
		p.slotNextTry[e.idx] = e.earliestIssue
		return false, false
	}
	isCtrl := e.cls == isa.ClassBranch || e.rec.Instr.Op == isa.JR
	validOnly := isCtrl && (!p.specOn() || p.model.BranchResolution == core.ResolveValidOnly)
	// Under the limited-wakeup policy an instruction that has already
	// executed twice waits for valid operands (Section 3.4).
	if p.specOn() && p.model.Wakeup == core.WakeupLimited && e.execCount >= 2 {
		validOnly = true
	}
	nsrc := e.nsrc
	if e.cls == isa.ClassStore {
		nsrc = 1 // address generation reads only the base register
	}
	for s := 0; s < nsrc; s++ {
		o := &e.src[s]
		if validOnly {
			if !o.validBy(c) {
				if o.state == core.StateValid && o.validAt != never && o.validAt > c {
					p.slotNextTry[e.idx] = o.validAt
				} else {
					p.slotNextTry[e.idx] = untilChange
				}
				return false, false
			}
			if isCtrl && o.everSpec && c < o.validAt+int64(p.model.Lat.VerifyBranch) {
				p.slotNextTry[e.idx] = o.validAt + int64(p.model.Lat.VerifyBranch)
				return false, false
			}
			continue
		}
		if fwd := !p.specOn() || p.model.ForwardSpeculative; !o.available(c, fwd) {
			if o.state.Available() && (fwd || o.state != core.StateSpeculative) &&
				o.ready != never && o.ready > c {
				p.slotNextTry[e.idx] = o.ready
			} else {
				p.slotNextTry[e.idx] = untilChange
			}
			return false, false
		}
		if o.state.Speculative() {
			spec = true
		}
	}
	return true, spec
}

// grantIssue performs the state mutations of issuing e at cycle c.
func (p *Pipeline) grantIssue(e *entry, c int64) {
	p.emit(c, EvIssue, e)
	clearBit(p.readyBits, e.idx)
	e.issued = true
	e.inFlight = true
	e.execCount++
	e.execToken++
	nsrc := e.nsrc
	if e.cls == isa.ClassStore {
		nsrc = 1
	}
	clean := true
	specUsed := false
	for s := 0; s < nsrc; s++ {
		e.usedCorrect[s] = e.src[s].correct
		if !e.src[s].correct {
			clean = false
		}
		if e.src[s].state.Speculative() {
			specUsed = true
		}
	}
	for s := nsrc; s < 2; s++ {
		e.usedCorrect[s] = true
	}
	e.inFlightClean = clean
	e.usedSpec = specUsed
	lat := int64(isa.Latency(e.rec.Instr.Op))
	if isa.IsMem(e.rec.Instr.Op) {
		lat = 1 // address generation
	}
	e.inFlightDone = c + lat - 1
	p.wbWheel.schedule(c, e.inFlightDone+1,
		wbEvent{age: e.age, token: e.execToken, idx: int32(e.idx), kind: wbExec})
	if e.wasNullified {
		p.stats.Reissues++
	}
}

// ---------------------------------------------------------------------------
// Memory access phase

// startAccesses begins data-cache accesses (or store forwards) for loads
// whose address is resolved per the memory-resolution policy, subject to the
// memory-ordering constraint and data-cache port limits. Candidates come from
// loadBits — set at dispatch for loads, cleared when the access starts,
// re-set on nullify — so cycles with no pending load skip the window walk.
func (p *Pipeline) startAccesses(c int64) {
	validOnly := !p.specOn() || p.model.MemResolution == core.ResolveValidOnly
	n := len(p.entries)
	if hi := p.head + p.count; hi <= n {
		p.startAccessSeg(p.head, hi, c, validOnly)
	} else {
		p.startAccessSeg(p.head, n, c, validOnly)
		p.startAccessSeg(0, hi-n, c, validOnly)
	}
}

// startAccessSeg visits the pending loads with ring slots in [lo, hi). Slot
// order within a non-wrapping segment is age order, and D-cache ports are
// granted oldest first, so the walk must stay ascending.
func (p *Pipeline) startAccessSeg(lo, hi int, c int64, validOnly bool) {
	if lo >= hi {
		return
	}
	n := len(p.entries)
	wi, last := lo>>6, (hi-1)>>6
	w := p.loadBits[wi] >> (uint(lo) & 63) << (uint(lo) & 63)
	for {
		if wi == last {
			if r := uint(hi) & 63; r != 0 {
				w &= 1<<r - 1
			}
		}
		for w != 0 {
			idx := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			e := &p.entries[idx]
			if !e.agDone || c < e.agCycle {
				continue
			}
			o := &e.src[0]
			if validOnly {
				if !o.inWindowRegfileValid(c) {
					continue
				}
				if o.everSpec && c < o.validAt+int64(p.model.Lat.VerifyAddrMem) {
					continue
				}
			}
			pos := idx - p.head
			if pos < 0 {
				pos += n
			}
			if !p.olderStoreAddrsKnown(pos, c, validOnly) {
				continue
			}
			st := p.forwardingStore(e, pos)
			if st != nil {
				// Store-to-load forwarding: single-cycle once the store data is
				// available under the resolution policy.
				d := &st.src[1]
				if validOnly {
					if !d.validBy(c) {
						continue
					}
				} else if !d.available(c, p.model.ForwardSpeculative) {
					continue
				}
				e.memStarted = true
				clearBit(p.loadBits, idx)
				e.memDoneAt = c
				p.wbWheel.schedule(c, c+1,
					wbEvent{age: e.age, token: e.execToken, idx: int32(e.idx), kind: wbMem})
				e.fwdStore = st.age
				e.fwdDataOK = d.correct
				if d.inWindow {
					e.fwdProdAge = d.prodAge
					e.fwdProdIdx = int(d.prodIdx)
					p.addConsumer(int(d.prodIdx), e.idx)
				}
				p.stats.StoreForwards++
				continue
			}
			if p.portsUsed >= p.cfg.DCachePorts {
				continue
			}
			p.portsUsed++
			lat := int64(p.hier.Data(uint64(e.rec.Addr) * 8))
			e.memStarted = true
			clearBit(p.loadBits, idx)
			e.memDoneAt = c + lat - 1
			p.wbWheel.schedule(c, e.memDoneAt+1,
				wbEvent{age: e.age, token: e.execToken, idx: int32(e.idx), kind: wbMem})
			e.fwdDataOK = true
		}
		if wi == last {
			return
		}
		wi++
		w = p.loadBits[wi]
	}
}

// inWindowRegfileValid reports whether the operand is valid by cycle c,
// treating register-file operands as always valid.
func (o *operand) inWindowRegfileValid(c int64) bool {
	if !o.inWindow {
		return true
	}
	return o.validBy(c)
}

// olderStoreAddrsKnown implements the paper's memory-ordering rule: a load
// may access memory only when the addresses of all preceding stores in the
// window are known (valid under valid-only resolution). pos is the load's
// age-order position; the stores are found through storeBits.
func (p *Pipeline) olderStoreAddrsKnown(pos int, c int64, validOnly bool) bool {
	n := len(p.entries)
	if hi := p.head + pos; hi <= n {
		return p.storesKnownSeg(p.head, hi, c, validOnly)
	} else {
		return p.storesKnownSeg(p.head, n, c, validOnly) &&
			p.storesKnownSeg(0, hi-n, c, validOnly)
	}
}

// storesKnownSeg checks every store with a ring slot in [lo, hi); the walk
// order is irrelevant to the boolean result.
func (p *Pipeline) storesKnownSeg(lo, hi int, c int64, validOnly bool) bool {
	if lo >= hi {
		return true
	}
	wi, last := lo>>6, (hi-1)>>6
	w := p.storeBits[wi] >> (uint(lo) & 63) << (uint(lo) & 63)
	for {
		if wi == last {
			if r := uint(hi) & 63; r != 0 {
				w &= 1<<r - 1
			}
		}
		for w != 0 {
			s := &p.entries[wi<<6+bits.TrailingZeros64(w)]
			w &= w - 1
			if !s.agDone || c < s.agCycle {
				return false
			}
			if validOnly && !s.src[0].inWindowRegfileValid(c) {
				return false
			}
		}
		if wi == last {
			return true
		}
		wi++
		w = p.storeBits[wi]
	}
}

// forwardingStore returns the youngest older store writing the load's
// address, if any. The reverse walk over storeBits visits the younger ring
// segment (past the wrap) before the older one.
func (p *Pipeline) forwardingStore(e *entry, pos int) *entry {
	n := len(p.entries)
	if hi := p.head + pos; hi <= n {
		return p.fwdStoreSeg(e, p.head, hi)
	} else {
		if st := p.fwdStoreSeg(e, 0, hi-n); st != nil {
			return st
		}
		return p.fwdStoreSeg(e, p.head, n)
	}
}

// fwdStoreSeg scans the stores with ring slots in [lo, hi) youngest first
// for one matching the load's address.
func (p *Pipeline) fwdStoreSeg(e *entry, lo, hi int) *entry {
	if lo >= hi {
		return nil
	}
	wi, first := (hi-1)>>6, lo>>6
	w := p.storeBits[wi]
	if r := uint(hi) & 63; r != 0 {
		w &= 1<<r - 1
	}
	for {
		if wi == first {
			w = w >> (uint(lo) & 63) << (uint(lo) & 63)
		}
		for w != 0 {
			b := 63 - bits.LeadingZeros64(w)
			w &^= 1 << uint(b)
			s := &p.entries[wi<<6+b]
			if s.rec.Addr == e.rec.Addr {
				return s
			}
		}
		if wi == first {
			return nil
		}
		wi--
		w = p.storeBits[wi]
	}
}

// ---------------------------------------------------------------------------
// Fetch and dispatch

func (p *Pipeline) fetch(c int64) {
	if p.blockingAge != never {
		p.stats.FetchStallCycles++
		return
	}
	if c < p.fetchResume {
		p.stats.FetchStallCycles++
		return
	}
	var lastBlock uint64 = ^uint64(0)
	for fetched := 0; fetched < p.cfg.IssueWidth; fetched++ {
		if p.count == len(p.entries) {
			p.stats.WindowFullStalls++
			return
		}
		rec, replayed, ok := p.nextRecord()
		if !ok {
			return
		}
		// Instruction cache: one access per distinct block per cycle; the
		// ideal fetch engine reads across basic blocks as long as it hits.
		block := uint64(rec.PC) * 4 / uint64(p.cfg.Mem.L1I.BlockBytes)
		if block != lastBlock {
			lat := int64(p.hier.Inst(uint64(rec.PC) * 4))
			if lat > 1 {
				// Miss: re-fetch this instruction when the block arrives.
				p.pending.pushFront(*rec)
				p.fetchResume = c + lat - 1
				return
			}
			lastBlock = block
		}
		e := p.dispatch(rec, replayed, c)
		if isa.IsCondBranch(rec.Instr.Op) {
			correct := true
			if !p.cfg.PerfectBranches {
				_, correct = p.bp.PredictAndUpdate(rec.PC, rec.Taken)
			}
			if !replayed {
				p.stats.CondBranches++
			}
			if !correct {
				if !replayed {
					p.stats.BranchMispredicts++
				}
				e.brMispred = true
				p.blockingAge = e.age
				return
			}
		}
	}
}

// nextRecord pulls the next correct-path record, preferring the replay
// queue. The returned pointer is read-only and valid only until the next
// deque push or nextRecord call; dispatch copies it into the window entry
// immediately.
func (p *Pipeline) nextRecord() (*trace.Record, bool, bool) {
	if p.pending.len() > 0 {
		return p.pending.popFrontRef(), true, true
	}
	if p.srcDone {
		return nil, false, false
	}
	if p.srcRef != nil {
		rec, ok := p.srcRef.NextRef()
		if !ok {
			p.srcDone = true
			return nil, false, false
		}
		return rec, false, true
	}
	rec, ok := p.src.Next()
	if !ok {
		p.srcDone = true
		return nil, false, false
	}
	p.recScratch = rec
	return &p.recScratch, false, true
}

// dispatch allocates a window entry for rec at cycle c. rec may alias the
// replay cursor's scratch or a deque slot; it is copied into the entry here,
// before anything else can move it.
func (p *Pipeline) dispatch(rec *trace.Record, replayed bool, c int64) *entry {
	idx := p.slot(p.count)
	p.count++
	e := &p.entries[idx]
	e.reset()
	e.used = true
	e.idx = idx
	e.age = p.nextAge
	p.nextAge++
	e.rec = *rec
	e.cls = isa.ClassOf(rec.Instr.Op)
	e.replayed = replayed
	e.dispatchCycle = c
	e.earliestIssue = c + 1
	e.nsrc = rec.NSrc
	p.slotAge[idx] = e.age
	p.slotCls[idx] = uint8(e.cls)
	p.slotNextTry[idx] = 0
	setBit(p.occBits, idx)
	clearBit(p.settledBits, idx)
	// Memory-class bits for the startAccesses walks. Stale bits on slots
	// outside the live ring range are harmless: every walk masks to
	// [head, head+count), so only reuse inside the range must be exact.
	switch e.cls {
	case isa.ClassLoad:
		setBit(p.loadBits, idx)
		clearBit(p.storeBits, idx)
	case isa.ClassStore:
		setBit(p.storeBits, idx)
		clearBit(p.loadBits, idx)
	default:
		clearBit(p.loadBits, idx)
		clearBit(p.storeBits, idx)
	}
	p.emit(c, EvDispatch, e)
	p.stats.Dispatched++
	if !replayed {
		switch e.cls {
		case isa.ClassLoad:
			p.stats.Loads++
		case isa.ClassStore:
			p.stats.Stores++
		}
	}

	setBit(p.readyBits, idx)
	for s := 0; s < e.nsrc; s++ {
		o := &e.src[s]
		*o = operand{reg: rec.SrcRegs[s], validAt: never, ready: never}
		prod := p.regProd[o.reg]
		if prod >= 0 && p.entries[prod].used {
			o.inWindow = true
			o.prodIdx = int32(prod)
			o.prodAge = p.regProdAge[o.reg]
			o.state = core.StateInvalid
			p.addConsumer(prod, idx)
			p.syncOperand(o)
		} else {
			o.state = core.StateValid
			o.correct = true
			o.ready = c
			o.validAt = c
		}
	}

	if e.writesReg() {
		p.predictValue(e, c)
		if rec.Instr.Dst != isa.R0 {
			p.regProd[rec.Instr.Dst] = idx
			p.regProdAge[rec.Instr.Dst] = e.age
		}
	}
	if !e.vpUsed {
		e.outState = core.StateInvalid
		e.outReady = never
	}
	p.pubOut(e) // covers reset, predictValue and the line above
	// NOP and HALT execute trivially; give them a one-cycle pass through
	// the pipeline like any simple operation.
	return e
}

// predictValue performs the value-prediction dispatch work for a
// register-writing instruction.
func (p *Pipeline) predictValue(e *entry, c int64) {
	if !p.specOn() || e.replayed {
		// Replayed instructions (complete-invalidation squashes, repaired
		// speculative branch resolutions) are not re-predicted.
		return
	}
	if p.spec.Predictable != nil && !p.spec.Predictable(e.rec.Instr.Op) {
		return
	}
	pc := e.rec.PC
	pred, cookie := p.spec.Predictor.Lookup(pc)
	e.vpMade = true
	e.vpValue = pred
	e.vpCookie = cookie
	e.vpCorrect = pred == e.rec.DstVal
	confident := p.spec.Confidence.Confident(pc, e.vpCorrect)

	if !e.replayed {
		p.stats.Predictions++
		switch {
		case e.vpCorrect && confident:
			p.stats.CH++
		case e.vpCorrect:
			p.stats.CL++
		case confident:
			p.stats.IH++
		default:
			p.stats.IL++
		}
	}

	switch p.spec.Update {
	case UpdateImmediate:
		p.spec.Predictor.TrainImmediate(pc, cookie, e.rec.DstVal)
		if !e.replayed {
			p.spec.Confidence.Update(pc, e.vpCorrect)
		}
	case UpdateDelayed:
		p.spec.Predictor.SpeculateHistory(pc, pred)
	}

	if confident {
		e.vpUsed = true
		if !e.replayed {
			p.stats.Speculated++
		}
		e.outState = core.StatePredicted
		e.outCorrect = e.vpCorrect
		e.outReady = c
	}
}
