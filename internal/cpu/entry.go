package cpu

import (
	"valuespec/internal/core"
	"valuespec/internal/isa"
	"valuespec/internal/trace"
)

// never is a cycle stamp meaning "not yet"; real stamps are non-negative.
const never int64 = -1

// operand is one source operand of a reservation station: the 2-bit ready
// state of the paper's extended RS plus the simulator-side bookkeeping that
// lets the verification network act with value-based filtering.
// operand's byte-wide fields are grouped so the struct packs into 40 bytes
// (two per entry; the sweep walks them every cycle).
type operand struct {
	reg isa.Reg

	// inWindow is false when the value was read from the architected
	// register file at dispatch (always valid).
	inWindow bool

	// Current value view, synced from the producer by the per-cycle sweep.
	state   core.ValueState
	correct bool // ground truth: the held value is architecturally correct

	// everSpec records whether the operand was ever predicted or
	// speculative; the Verification-Branch and Verification-Address-Memory
	// latencies only apply to operands that needed verification.
	everSpec bool

	// Producer linkage.
	prodIdx int32 // ring index of the producing entry (window ≤ 2^31 slots)
	prodAge int64 // age of the producer, to detect slot reuse

	ready   int64 // earliest cycle a consumer may issue using this value
	validAt int64 // cycle the value became Valid (never until then)
}

// available reports whether the operand can feed an execution at cycle c
// under the forwarding policy.
func (o *operand) available(c int64, forwardSpec bool) bool {
	if !o.state.Available() || o.ready == never || c < o.ready {
		return false
	}
	if !forwardSpec && o.state == core.StateSpeculative {
		return false
	}
	return true
}

// validBy reports whether the operand is Valid with validAt <= c.
func (o *operand) validBy(c int64) bool {
	return o.state == core.StateValid && o.validAt != never && o.validAt <= c
}

// entry is one reservation station in the unified instruction window.
//
// Field order is deliberate: the leading group is the entry's "broadcast
// header" — everything a consumer's syncOperand reads from its producer
// (used, age, the out* view, validAt) plus the opcode-derived bytes and nsrc
// that the sweep, issue and writeback test first — so those stages touch one
// cache line of a ~460-byte entry instead of several. The rarely-read rec
// (104 bytes) sits at the tail.
type entry struct {
	used       bool
	outCorrect bool
	outState   core.ValueState

	// Decoded from the opcode at dispatch (see decode).
	cls      isa.Class
	isCtrl   bool  // conditional branch or JR: resolves from its operands
	writes   bool  // produces a register result
	issueLat uint8 // cycles from issue to completion (1 for address generation)

	nsrc     int
	idx      int   // ring index of this entry (fixed for its lifetime)
	age      int64 // dispatch order, unique across the run
	outReady int64
	validAt  int64 // cycle output became known-valid (never until then)

	dispatchCycle int64
	src           [2]operand

	// Value prediction of this entry's output.
	vpMade    bool   // a prediction was made (register-writing instruction)
	vpUsed    bool   // the prediction drove speculation (confident)
	vpCorrect bool   // ground truth: predicted value == actual result
	vpDead    bool   // equality exposed the prediction as wrong
	vpValue   int64  // the predicted value
	vpCookie  uint64 // predictor training cookie
	replayed  bool   // re-dispatched after a squash (not re-predicted)

	// Execution state. execToken invalidates stale completion and equality
	// events after nullification.
	issued        bool
	inFlight      bool
	execCount     int   // executions begun (for the limited-wakeup policy)
	inFlightDone  int64 // doneCycle of the in-flight execution
	inFlightClean bool
	usedCorrect   [2]bool // ground truth of each operand value consumed at issue
	execToken     int64
	earliestIssue int64
	wasNullified  bool

	doneExec  bool  // latest execution has completed and broadcast
	execClean bool  // that execution consumed only correct values
	doneCycle int64 // cycle during which it completed
	eqDone    bool  // equality outcome actionable (speculated predictions)
	eqReady   int64 // cycle the equality outcome becomes actionable
	usedSpec  bool  // some input was speculative when last issued

	// The output view exposed to consumers (outState, outCorrect, outReady,
	// validAt) lives in the broadcast header at the top of the struct; see
	// broadcast and refreshOutput.

	// Memory state. For loads, execution is address generation and the
	// access is a separate phase; for stores, address generation is the
	// only execution and the access happens at retirement.
	agDone     bool
	agCycle    int64 // cycle the generated address becomes usable
	memStarted bool
	memDone    bool
	memDoneAt  int64
	fwdStore   int64 // age of the forwarding store, never if from cache
	fwdDataOK  bool  // ground truth of the value the access returned
	fwdProdAge int64 // age of the forwarded data's producer, never if none
	fwdProdIdx int   // ring index of that producer, -1 if none

	// Branch state.
	resolved    bool
	resolveAt   int64
	brMispred   bool // gshare direction was wrong (conditional branches)
	specResolve bool // resolved speculatively with wrong operands (ablation)

	// retireAt is the earliest retirement cycle once the output is valid.
	retireAt int64

	// rec is the dynamic-instruction record (104 bytes); kept at the tail so
	// it does not push the hot header and operands onto later cache lines.
	rec trace.Record

	// cons lists the ring indices of entries registered as consumers of
	// this entry's output (register operands at dispatch, store-forwarded
	// data at access time); stale registrations are filtered at use by
	// re-checking the dependence.
	cons []int
}

// decode sets the fields dispatch derives from the opcode.
func (e *entry) decode(op isa.Op) {
	d := &opTable[op]
	e.cls, e.isCtrl, e.writes, e.issueLat = d.cls, d.isCtrl, d.writes, d.issueLat
}

// opTable holds decode's fields for every value of an opcode byte, derived
// once from the isa package, so that dispatch reads one entry instead of
// evaluating the isa switches.
var opTable = func() (t [256]struct {
	cls      isa.Class
	isCtrl   bool
	writes   bool
	issueLat uint8
}) {
	for i := range t {
		op, d := isa.Op(i), &t[i]
		d.cls = isa.ClassOf(op)
		d.isCtrl = d.cls == isa.ClassBranch || op == isa.JR
		d.writes = isa.WritesReg(op)
		d.issueLat = uint8(isa.Latency(op))
		if isa.IsMem(op) {
			d.issueLat = 1 // address generation
		}
	}
	return t
}()

// reset prepares a slot for a new dispatch. It deliberately does NOT touch
// the fields its only caller (dispatch) assigns unconditionally right after —
// used, idx, age, rec, the decoded opcode fields, replayed, dispatchCycle,
// earliestIssue, nsrc and src[0:nsrc] — nor src slots at or past nsrc,
// which no reader ever consults: a whole-struct `*e = entry{...}` re-zeroed
// the ~460-byte entry (104 of which is rec) on every dispatch, and the
// resulting duffcopy was one of the hottest instructions in the sweep
// profile.
func (e *entry) reset() {
	e.vpMade = false
	e.vpUsed = false
	e.vpCorrect = false
	e.vpDead = false
	e.vpValue = 0
	e.vpCookie = 0
	e.issued = false
	e.inFlight = false
	e.execCount = 0
	e.inFlightDone = never
	e.inFlightClean = false
	e.usedCorrect[0] = false
	e.usedCorrect[1] = false
	e.execToken = 0
	e.wasNullified = false
	e.doneExec = false
	e.execClean = false
	e.doneCycle = never
	e.eqDone = false
	e.eqReady = never
	e.usedSpec = false
	e.outState = core.StateInvalid
	e.outCorrect = false
	e.outReady = never
	e.validAt = never
	e.agDone = false
	e.agCycle = never
	e.memStarted = false
	e.memDone = false
	e.memDoneAt = never
	e.fwdStore = never
	e.fwdDataOK = false
	e.fwdProdAge = never
	e.fwdProdIdx = -1
	e.resolved = false
	e.resolveAt = never
	e.brMispred = false
	e.specResolve = false
	e.retireAt = never
	e.cons = e.cons[:0] // keep the consumer-list allocation across reuse
}

// nullify voids the effects of previous executions so the entry can wake up
// again (the paper's nullification semantics), applying the
// Invalidation-Reissue latency from cycle c.
func (e *entry) nullify(c, reissueLat int64) {
	e.issued = false
	e.inFlight = false
	e.execToken++
	e.wasNullified = true
	e.doneExec = false
	e.execClean = false
	e.doneCycle = never
	e.eqDone = false
	e.eqReady = never
	e.validAt = never
	e.retireAt = never
	e.usedSpec = false
	// Memory and branch work is redone after reissue.
	e.agDone = false
	e.agCycle = never
	e.memStarted = false
	e.memDone = false
	e.memDoneAt = never
	e.fwdStore = never
	e.fwdDataOK = false
	e.fwdProdAge = never
	e.fwdProdIdx = -1
	e.resolved = false
	e.resolveAt = never
	e.earliestIssue = maxi64(e.earliestIssue, c+reissueLat)
	// Output view: if this entry's own prediction is still standing its
	// consumers keep the predicted value; otherwise nothing is available
	// until the re-execution broadcasts.
	if e.vpUsed && !e.vpDead {
		e.outState = core.StatePredicted
		e.outCorrect = e.vpCorrect
		e.outReady = e.dispatchCycle
	} else {
		e.outState = core.StateInvalid
		e.outCorrect = false
		e.outReady = never
	}
}
