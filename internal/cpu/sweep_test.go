package cpu

import (
	"testing"

	"valuespec/internal/core"
	"valuespec/internal/isa"
	"valuespec/internal/trace"
)

// newTestPipeline returns an empty pipeline for white-box state-machine
// tests of the sweep logic.
func newTestPipeline(t *testing.T) *Pipeline {
	t.Helper()
	spec := &SpecOptions{
		Enabled:    true,
		Model:      core.Great(),
		Predictor:  &scriptedPredictor{preds: map[int]int64{}},
		Confidence: &scriptedConfidence{conf: map[int]bool{}},
	}
	p, err := New(flatMemConfig(Config4x24()), spec, &trace.SliceSource{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// plant installs an entry at ring slot idx with the given age, registering
// the slot mirrors the way dispatch would. Tests that mutate the entry's
// broadcast header afterwards must republish it with p.pubOut(e).
func plant(p *Pipeline, idx int, age int64) *entry {
	e := &p.entries[idx]
	e.reset()
	e.used = true
	e.idx = idx
	e.age = age
	e.rec = trace.Record{Instr: isa.Instruction{Op: isa.ADD, Dst: 1}}
	e.decode(isa.ADD)
	p.slotAge[idx] = age
	p.slotCls[idx] = uint8(e.cls)
	setBit(p.occBits, idx)
	p.pubOut(e)
	return e
}

// TestDispatchDecodesEveryOpcode checks that the fields dispatch decodes
// from the opcode, which the stages read instead of the record, agree with
// the isa package for every value of the opcode byte, the ones outside the
// ISA included.
func TestDispatchDecodesEveryOpcode(t *testing.T) {
	type decoded struct {
		cls      isa.Class
		isCtrl   bool
		writes   bool
		issueLat int
	}
	p := newTestPipeline(t)
	for i := 0; i < 256; i++ {
		op := isa.Op(i)
		want := decoded{isa.ClassOf(op), isa.IsCondBranch(op) || isa.IsIndirect(op),
			isa.WritesReg(op), isa.Latency(op)}
		if isa.IsMem(op) {
			want.issueLat = 1 // issue generates the address
		}
		p.head, p.count = 0, 0
		rec := trace.Record{Instr: isa.Instruction{Op: op, Dst: 1}}
		e := p.dispatch(&rec, false, 0)
		if got := (decoded{e.cls, e.isCtrl, e.writes, int(e.issueLat)}); got != want {
			t.Errorf("%v: dispatch decoded %+v, want %+v", op, got, want)
		}
	}
}

func TestSyncOperandCapturesFromInvalid(t *testing.T) {
	p := newTestPipeline(t)
	prod := plant(p, 0, 10)
	prod.outState = core.StatePredicted
	prod.outCorrect = true
	prod.outReady = 3
	p.pubOut(prod)

	o := &operand{inWindow: true, prodIdx: 0, prodAge: 10, state: core.StateInvalid, validAt: never, ready: never}
	p.syncOperand(o)
	if o.state != core.StatePredicted || !o.correct || o.ready != 3 {
		t.Errorf("capture failed: %+v", o)
	}
	if !o.everSpec {
		t.Error("everSpec not set on a predicted capture")
	}
}

func TestSyncOperandKeepsCorrectCapturedValue(t *testing.T) {
	// A held correct value must not be displaced when the producer
	// broadcasts something wrong (a re-execution with still-wrong inputs).
	p := newTestPipeline(t)
	prod := plant(p, 0, 10)
	prod.outState = core.StateSpeculative
	prod.outCorrect = false
	prod.outReady = 9
	p.pubOut(prod)

	o := &operand{inWindow: true, prodIdx: 0, prodAge: 10,
		state: core.StatePredicted, correct: true, ready: 2, validAt: never}
	p.syncOperand(o)
	if !o.correct || o.ready != 2 {
		t.Errorf("correct captured value displaced: %+v", o)
	}
}

func TestSyncOperandUpgradesToValid(t *testing.T) {
	p := newTestPipeline(t)
	prod := plant(p, 0, 10)
	prod.outState = core.StateValid
	prod.outCorrect = true
	prod.outReady = 4
	prod.validAt = 6
	p.pubOut(prod)

	o := &operand{inWindow: true, prodIdx: 0, prodAge: 10,
		state: core.StatePredicted, correct: true, ready: 2, validAt: never}
	p.syncOperand(o)
	if o.state != core.StateValid || o.validAt != 6 {
		t.Errorf("upgrade failed: %+v", o)
	}
	if o.ready != 2 {
		t.Error("upgrade must not delay the captured value's readiness")
	}
}

func TestSyncOperandReplacesWrongValue(t *testing.T) {
	p := newTestPipeline(t)
	prod := plant(p, 0, 10)
	prod.outState = core.StateValid
	prod.outCorrect = true
	prod.outReady = 8
	prod.validAt = 8
	p.pubOut(prod)

	o := &operand{inWindow: true, prodIdx: 0, prodAge: 10,
		state: core.StatePredicted, correct: false, ready: 2, validAt: never}
	p.syncOperand(o)
	if !o.correct || o.state != core.StateValid || o.ready != 8 {
		t.Errorf("wrong value not replaced: %+v", o)
	}
}

func TestSyncOperandIgnoresReusedSlot(t *testing.T) {
	p := newTestPipeline(t)
	prod := plant(p, 0, 99) // different age than the operand expects
	prod.outState = core.StateSpeculative
	prod.outCorrect = false
	p.pubOut(prod)

	o := &operand{inWindow: true, prodIdx: 0, prodAge: 10,
		state: core.StateValid, correct: true, ready: 2, validAt: 2}
	p.syncOperand(o)
	if o.state != core.StateValid || !o.correct {
		t.Errorf("slot reuse corrupted a final operand: %+v", o)
	}
}

func TestRefreshOutputGatesOnEquality(t *testing.T) {
	// A speculated prediction with clean execution and valid inputs must
	// not validate before its equality outcome is actionable.
	p := newTestPipeline(t)
	e := plant(p, 0, 1)
	e.vpMade, e.vpUsed, e.vpCorrect = true, true, true
	e.doneExec, e.execClean = true, true
	e.doneCycle = 5
	e.eqReady = 8 // actionable at 8
	p.head, p.count = 0, 1

	p.refreshOutput(e, 7, 0)
	if e.validAt != never {
		t.Fatalf("validated at cycle 7 before equality (eqReady 8)")
	}
	e.eqDone = true
	p.refreshOutput(e, 8, 0)
	if e.validAt != 8 {
		t.Fatalf("validAt = %d, want 8", e.validAt)
	}
	if e.retireAt != 8+int64(p.model.Lat.VerifyFreeRetire) {
		t.Errorf("retireAt = %d", e.retireAt)
	}
}

func TestRefreshOutputWaitsForOperandValidity(t *testing.T) {
	p := newTestPipeline(t)
	prod := plant(p, 0, 1)
	prod.outState = core.StateSpeculative
	cons := plant(p, 1, 2)
	cons.doneExec, cons.execClean = true, true
	cons.doneCycle = 4
	cons.nsrc = 1
	cons.src[0] = operand{inWindow: true, prodIdx: 0, prodAge: 1,
		state: core.StateSpeculative, correct: true, ready: 3, validAt: never, everSpec: true}
	p.head, p.count = 0, 2

	p.refreshOutput(cons, 9, 1)
	if cons.validAt != never {
		t.Fatal("validated with a speculative operand")
	}
	cons.src[0].state = core.StateValid
	cons.src[0].validAt = 9
	p.refreshOutput(cons, 9, 1)
	if cons.validAt != 9 {
		t.Fatalf("validAt = %d, want 9", cons.validAt)
	}
}

func TestNullifyRestoresPredictionView(t *testing.T) {
	p := newTestPipeline(t)
	e := plant(p, 0, 1)
	e.vpUsed, e.vpCorrect = true, true
	e.dispatchCycle = 2
	e.doneExec = true
	e.outState = core.StateSpeculative
	e.nullify(10, 3)
	if e.outState != core.StatePredicted || e.outReady != 2 {
		t.Errorf("live prediction not re-exposed: state=%v ready=%d", e.outState, e.outReady)
	}
	if e.earliestIssue != 13 {
		t.Errorf("earliestIssue = %d, want 13", e.earliestIssue)
	}

	e.vpDead = true
	e.nullify(12, 3)
	if e.outState != core.StateInvalid {
		t.Errorf("dead prediction re-exposed: %v", e.outState)
	}
}

func TestOperandAvailability(t *testing.T) {
	o := operand{state: core.StateSpeculative, ready: 5}
	if o.available(4, true) {
		t.Error("available before ready cycle")
	}
	if !o.available(5, true) {
		t.Error("not available at ready cycle")
	}
	if o.available(5, false) {
		t.Error("speculative value available without forwarding")
	}
	o.state = core.StatePredicted
	if !o.available(5, false) {
		t.Error("predicted value must be available even without forwarding")
	}
	o.state = core.StateInvalid
	if o.available(10, true) {
		t.Error("invalid operand available")
	}
}
