package trace

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"valuespec/internal/isa"
)

// loopRecords is a counted loop over a load, as the emulator runs it:
//
//	0: ldi r1, 0
//	1: ld  r2, 100(r1)
//	2: addi r1, r1, 1
//	3: slti r3, r1, n
//	4: bne r3, r0, @1
//	5: halt
func loopRecords(n int) ([]isa.Instruction, []Record) {
	return countedLoop(n, isa.Instruction{Op: isa.LD, Dst: 2, Src1: 1, Imm: 100})
}

// countedLoop is loopRecords with body at PC 1 in place of the load. It
// returns the code and the records, written out by hand rather than by an
// Exec.
func countedLoop(n int, body isa.Instruction) ([]isa.Instruction, []Record) {
	code := []isa.Instruction{
		{Op: isa.LDI, Dst: 1},
		body,
		{Op: isa.ADDI, Dst: 1, Src1: 1, Imm: 1},
		{Op: isa.SLTI, Dst: 3, Src1: 1, Imm: int64(n)},
		{Op: isa.BNE, Src1: 3, Src2: isa.R0, Target: 1},
		{Op: isa.HALT},
	}
	var regs [isa.NumRegs]int64
	var recs []Record
	for pc := 0; ; {
		in := code[pc]
		r := Record{Seq: int64(len(recs)), PC: pc, Instr: in, NextPC: pc + 1}
		r.SrcRegs, r.NSrc = in.SrcRegs()
		for i := 0; i < r.NSrc; i++ {
			r.SrcVals[i] = regs[r.SrcRegs[i]]
		}
		switch in.Op {
		case isa.LD:
			r.Addr = r.SrcVals[0] + in.Imm
			r.DstVal = r.Addr * 7 // any memory image will do
		case isa.BNE:
			if r.Taken = r.SrcVals[0] != r.SrcVals[1]; r.Taken {
				r.NextPC = in.Target
			}
		case isa.LDI, isa.ADDI, isa.XORI, isa.SLTI:
			r.DstVal = isa.Eval(in.Op, r.SrcVals[0], r.SrcVals[1], in.Imm)
		}
		if isa.WritesReg(in.Op) {
			regs[in.Dst] = r.DstVal
		}
		recs = append(recs, r)
		if in.Op == isa.HALT {
			return code, recs
		}
		pc = r.NextPC
	}
}

// callRecords is a call and a return around a load and a store, entered
// at PC 0, with its records written out by hand:
//
//	0: ldi r1, 5
//	1: jal r31, @4
//	2: st r1, 3(r0)
//	3: halt
//	4: ld r2, 8(r1)
//	5: jr r31
func callRecords() ([]isa.Instruction, []Record) {
	code := []isa.Instruction{
		{Op: isa.LDI, Dst: 1, Imm: 5},
		{Op: isa.JAL, Dst: 31, Target: 4},
		{Op: isa.ST, Src1: isa.R0, Src2: 1, Imm: 3},
		{Op: isa.HALT},
		{Op: isa.LD, Dst: 2, Src1: 1, Imm: 8},
		{Op: isa.JR, Src1: 31},
	}
	return code, []Record{
		{Seq: 0, PC: 0, Instr: code[0], DstVal: 5, NextPC: 1},
		{Seq: 1, PC: 1, Instr: code[1], DstVal: 2, Taken: true, NextPC: 4},
		{Seq: 2, PC: 4, Instr: code[4], NSrc: 1, SrcRegs: [2]isa.Reg{1}, SrcVals: [2]int64{5},
			DstVal: -1 << 62, Addr: 13, NextPC: 5},
		{Seq: 3, PC: 5, Instr: code[5], NSrc: 1, SrcRegs: [2]isa.Reg{31}, SrcVals: [2]int64{2},
			Taken: true, NextPC: 2},
		{Seq: 4, PC: 2, Instr: code[2], NSrc: 2, SrcRegs: [2]isa.Reg{isa.R0, 1}, SrcVals: [2]int64{0, 5},
			Addr: 3, NextPC: 3},
		{Seq: 5, PC: 3, Instr: code[3], NextPC: 4},
	}
}

// loadVals returns the DstVal of each load of recs, in order.
func loadVals(recs []Record) []int64 {
	var vals []int64
	for _, r := range recs {
		if r.Instr.Op == isa.LD {
			vals = append(vals, r.DstVal)
		}
	}
	return vals
}

// logOf returns the load log of vals.
func logOf(vals []int64) []byte {
	var log []byte
	for _, v := range vals {
		log = binary.AppendVarint(log, v)
	}
	return log
}

// recordOf returns the recording of recs, a run of code from its first
// record's PC.
func recordOf(code []isa.Instruction, recs []Record) *Recording {
	return NewRecording(isa.Decode(code), recs[0].PC, len(recs), logOf(loadVals(recs)))
}

// TestRecordingRoundTrip replays recordings of hand-written runs: every
// field of every record must come back from the code and the load log.
func TestRecordingRoundTrip(t *testing.T) {
	type run struct {
		code []isa.Instruction
		recs []Record
	}
	of := func(code []isa.Instruction, recs []Record) run { return run{code, recs} }
	for _, tc := range []struct {
		name string
		run  run
	}{
		{"loop", of(loopRecords(50))},
		{"load-free loop", of(countedLoop(50, isa.Instruction{Op: isa.XORI, Dst: 2, Src1: 1, Imm: 0x5a}))},
		{"call", of(callRecords())},
	} {
		rec := recordOf(tc.run.code, tc.run.recs)
		if rec.Len() != len(tc.run.recs) {
			t.Errorf("%s: Len = %d, want %d", tc.name, rec.Len(), len(tc.run.recs))
		}
		src := rec.Source()
		got := Collect(src, 0)
		if !reflect.DeepEqual(got, tc.run.recs) {
			t.Errorf("%s: replay diverged from the run\n got %+v\nwant %+v", tc.name, got, tc.run.recs)
		}
		if err := src.Err(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	empty := NewRecording(isa.Decode([]isa.Instruction{{Op: isa.HALT}}), 0, 0, nil).Source()
	if r, ok := empty.Next(); ok || empty.Err() != nil {
		t.Errorf("empty recording: Next = %+v, %t; Err %v", r, ok, empty.Err())
	}
}

// TestReplayChecksLoadLog replays recordings whose load log is not the
// run's: every one must end with an error from Err, and none before the
// replay reaches the point that shows it.
func TestReplayChecksLoadLog(t *testing.T) {
	code, recs := loopRecords(20)
	vals := loadVals(recs)
	kept := vals[: len(vals)-1 : len(vals)-1]
	callCode, callRecs := callRecords()
	for _, tc := range []struct {
		name string
		rec  *Recording
		want string
	}{
		{"last value dropped", NewRecording(isa.Decode(code), 0, len(recs), logOf(kept)), "ran out"},
		{"value appended", NewRecording(isa.Decode(code), 0, len(recs), logOf(append(vals, 2))), "left after"},
		{"truncated varint", NewRecording(isa.Decode(code), 0, len(recs), append(logOf(kept), 0x80)), "ran out"},
		// A return address that is wrong sends control out of the code:
		// patch the call's jr to read the loaded r2.
		{"control leaves the code", func() *Recording {
			c := append([]isa.Instruction(nil), callCode...)
			c[5].Src1 = 2
			return NewRecording(isa.Decode(c), 0, len(callRecs), logOf(loadVals(callRecs)))
		}(), "outside the code"},
	} {
		src := tc.rec.Source()
		n := 0
		for _, ok := src.NextRef(); ok; _, ok = src.NextRef() {
			n++
			if n < tc.rec.Len() && src.Err() != nil {
				t.Errorf("%s: Err %v after %d of %d records", tc.name, src.Err(), n, tc.rec.Len())
			}
		}
		if err := src.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: after %d records Err = %v, want one saying %q", tc.name, n, err, tc.want)
		}
		if _, ok := src.NextRef(); ok {
			t.Errorf("%s: the cursor goes on after failing", tc.name)
		}
	}
}

func TestMemorySourceIndependentCursors(t *testing.T) {
	code, recs := loopRecords(3)
	rec := recordOf(code, recs)
	a, b := rec.Source(), rec.Source()
	if a.Len() != len(recs) || b.Len() != len(recs) {
		t.Fatalf("Len = %d/%d, want %d", a.Len(), b.Len(), len(recs))
	}
	// Advance a past b; b must be unaffected.
	if r, ok := a.Next(); !ok || r != recs[0] {
		t.Fatalf("a.Next = %v, %t", r, ok)
	}
	if r, ok := a.NextRef(); !ok || *r != recs[1] {
		t.Fatalf("a.NextRef = %v, %t", r, ok)
	}
	if r, ok := b.Next(); !ok || r != recs[0] {
		t.Fatalf("b.Next = %v, %t after advancing a", r, ok)
	}
	if got := Collect(a, 0); !reflect.DeepEqual(got, recs[2:]) {
		t.Fatalf("a drained %d records, want the remaining %d intact", len(got), len(recs)-2)
	}
	if _, ok := a.Next(); ok {
		t.Fatal("a.Next reported a record past the end")
	}
	if got := Collect(b, 0); !reflect.DeepEqual(got, recs[1:]) {
		t.Fatalf("b drained %d records after a finished, want %d intact", len(got), len(recs)-1)
	}
}

// TestRecordingBytes checks the footprint accounting: a recording holds
// its decoded code and one varint per load, whatever the run's length, so
// a load-free loop costs its six decoded instructions and nothing per record.
func TestRecordingBytes(t *testing.T) {
	const n = 10000
	for _, tc := range []struct {
		name string
		run  func() ([]isa.Instruction, []Record)
		max  float64 // bytes per record
	}{
		{"load-free loop", func() ([]isa.Instruction, []Record) {
			return countedLoop(n, isa.Instruction{Op: isa.XORI, Dst: 2, Src1: 1, Imm: 0x5a})
		}, 0.01},
		{"loop with a load", func() ([]isa.Instruction, []Record) { return loopRecords(n) }, 1},
	} {
		code, recs := tc.run()
		rec := recordOf(code, recs)
		want := int64(unsafe.Sizeof(Recording{})) + int64(len(code))*int64(unsafe.Sizeof(isa.Decoded{})) +
			int64(len(logOf(loadVals(recs))))
		if rec.Bytes() != want {
			t.Errorf("%s: Bytes = %d, want the header, %d decoded instructions and the load log: %d",
				tc.name, rec.Bytes(), len(code), want)
		}
		perRec := float64(rec.Bytes()) / float64(len(recs))
		t.Logf("%s: %d records in %d bytes, %.3f B/record", tc.name, len(recs), rec.Bytes(), perRec)
		if perRec > tc.max {
			t.Errorf("%s: %.3f B/record, want at most %g", tc.name, perRec, tc.max)
		}
	}
}
