package cpu

import (
	"math/bits"

	"valuespec/internal/core"
	"valuespec/internal/isa"
)

// ---------------------------------------------------------------------------
// Struct-of-arrays window core
//
// The wakeup/selection and sweep stages keep the hot per-slot state as
// machine words — occupancy, readiness and settledness bitsets sized to the
// window, plus dense slotAge/slotCls mirrors — and scan them with
// bits.TrailingZeros64. Walking the two ring segments [head, n) then
// [0, head+count-n) visits slots in age order, the order the paper's
// selection logic and verification network are defined over. The plain
// full-window scans those walks must match live in scan_test.go, and
// TestEventWakeupMatchesScan holds the two byte-identical.
//
// settledBits additionally lets the sweep skip entries whose per-cycle work
// is provably a permanent no-op: once an entry's output validity is settled
// (validAt != never, making refreshOutput return immediately) and every
// in-window operand holds a correct Valid value (making each syncOperand
// return at its settled early-out), nothing the sweep does to the entry can
// change again until it is nullified (nullifyWave clears the bit) or its
// slot is reused (dispatch clears the bit).

// outView is the dense mirror of one entry's broadcast header: the four
// fields a consumer's syncOperand reads from its producer. The mirror packs
// the whole window into ~24 bytes per slot, so producer lookups — the
// hottest loads of the per-cycle sweep — stay in a few KiB instead of
// striding through ~460-byte entries. The entry remains the source of truth;
// every site that mutates outState/outCorrect/outReady/validAt republishes
// with pubOut. Liveness is NOT mirrored here: syncOperand checks occBits and
// slotAge, which are maintained at exactly the sites entry.used changes, so
// a stale view behind a retired or squashed producer is never read.
type outView struct {
	state   core.ValueState
	correct bool
	ready   int64
	validAt int64
}

// pubOut republishes e's broadcast header into the dense mirror. When the
// view changed it wakes the dormant sweep for e's registered consumers,
// whose syncOperand reads nothing else of e, so a republish that changes
// nothing (an equality match only confirms what consumers already hold)
// wakes nobody. Stale consumer registrations cause at worst a spurious
// visit. Waking e itself is up to the caller: only the sites after which
// refreshOutput can act do it.
func (p *Pipeline) pubOut(e *entry) {
	v := outView{e.outState, e.outCorrect, e.outReady, e.validAt}
	if p.outViews[e.idx] == v {
		return
	}
	p.outViews[e.idx] = v
	for _, ci := range e.cons {
		clearBit(p.dormantBits, ci)
	}
}

// wakeToSettle wakes e's sweep visit after a change to its own execution
// state, when refreshOutput may now settle it. A branch settles on its
// resolution alone; any other entry only once every in-window operand holds
// a Valid value, since until then refreshOutput stops at an operand, and the
// producer's republish wakes e when that operand moves.
func (p *Pipeline) wakeToSettle(e *entry) {
	if e.cls != isa.ClassBranch {
		for s := 0; s < e.nsrc; s++ {
			if o := &e.src[s]; o.inWindow && o.state != core.StateValid {
				return
			}
		}
	}
	clearBit(p.dormantBits, e.idx)
}

// setBit sets bit i of the window-sized bitset w.
func setBit(w []uint64, i int) { w[i>>6] |= 1 << (uint(i) & 63) }

// clearBit clears bit i of the window-sized bitset w.
func clearBit(w []uint64, i int) { w[i>>6] &^= 1 << (uint(i) & 63) }

// collectReady files the issue candidates among the ready slots in
// [lo, hi) that are not blocked on operand state into the selection
// buckets, each in slot (= age, within a ring segment) order. The buckets
// are the priority classes in grant order: branches and loads on
// non-speculative inputs, then on speculative ones, then the same two for
// the rest; the oldest-first policy ignores the speculative split.
func (p *Pipeline) collectReady(lo, hi int, c int64) {
	if lo >= hi {
		return
	}
	wi, last := lo>>6, (hi-1)>>6
	w := (p.readyBits[wi] &^ p.blockedBits[wi]) >> (uint(lo) & 63) << (uint(lo) & 63)
	for {
		if wi == last {
			if r := uint(hi) & 63; r != 0 {
				w &= 1<<r - 1
			}
		}
		for w != 0 {
			idx := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if c < p.slotNextTry[idx] {
				continue // time-gated; see checkIssue
			}
			p.issueChecks++
			ok, spec := p.checkIssue(&p.entries[idx], c)
			if !ok {
				continue
			}
			b := 2
			if cls := isa.Class(p.slotCls[idx]); cls == isa.ClassBranch || cls == isa.ClassLoad {
				b = 0
			}
			if spec && !p.oldestFirst {
				b++
			}
			p.issueBuckets[b] = append(p.issueBuckets[b], int32(idx))
		}
		if wi == last {
			return
		}
		wi++
		w = p.readyBits[wi] &^ p.blockedBits[wi]
	}
}

// sweepSeg sweeps the occupied slots in [lo, hi) that are neither settled
// nor dormant. The candidate word is reloaded after every visit: a producer
// visited earlier in the pass may validate and wake a consumer later in the
// same word (consumers are younger, so a wake always targets a higher bit or
// a later word), and the one-pass in-order propagation depends on visiting
// it this same cycle.
func (p *Pipeline) sweepSeg(lo, hi int, c int64) {
	if lo >= hi {
		return
	}
	n := len(p.entries)
	wi, last := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	for {
		hiMask := ^uint64(0)
		if wi == last {
			if r := uint(hi) & 63; r != 0 {
				hiMask = 1<<r - 1
			}
		}
		w := (p.occBits[wi] &^ p.settledBits[wi] &^ p.dormantBits[wi]) & loMask & hiMask
		for w != 0 {
			b := bits.TrailingZeros64(w)
			idx := wi<<6 + b
			e := &p.entries[idx]
			p.sweepVisits++
			// settled: every in-window operand holds a correct Valid value,
			// the condition under which syncOperand returns at its settled
			// early-out forever (operand state is only displaced while wrong
			// or upgraded while unverified, and dispatch reinitializes on
			// slot reuse).
			settled := true
			for o := 0; o < e.nsrc; o++ {
				// The guard is syncOperand's own settled early-out, hoisted
				// to skip the call (regfile operands and correct Valid
				// captures are the common case on a not-yet-settled entry).
				if op := &e.src[o]; op.inWindow && (op.state != core.StateValid || !op.correct) {
					if p.syncOperand(op) && o < e.issueSrcs() {
						p.regate(e, idx, op)
					}
					settled = settled && op.state == core.StateValid && op.correct
				}
			}
			retry := never
			if e.validAt == never {
				pos := idx - p.head
				if pos < 0 {
					pos += n
				}
				retry = p.refreshOutput(e, c, pos)
			}
			switch {
			case e.validAt != never && settled:
				setBit(p.settledBits, idx)
			case retry == never:
				// Blocked on instrumented events only (completion, equality,
				// producer republish), all of which wake us when refreshOutput
				// can act on them (wakeToSettle, pubOut).
				setBit(p.dormantBits, idx)
			case retry > c+1:
				// Pure time gate: sleep until the retry cycle.
				setBit(p.dormantBits, idx)
				p.wbWheel.schedule(c, retry, wbEvent{idx: int32(idx), kind: wbWake})
			}
			w = (p.occBits[wi] &^ p.settledBits[wi] &^ p.dormantBits[wi]) &
				hiMask & (^uint64(0) << (uint(b) + 1))
		}
		if wi == last {
			return
		}
		wi++
		loMask = ^uint64(0)
	}
}
