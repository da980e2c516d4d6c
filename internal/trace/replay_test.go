package trace

import (
	"reflect"
	"testing"

	"valuespec/internal/isa"
)

func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Seq: int64(i), PC: i,
			Instr:   isa.Instruction{Op: isa.ADD, Dst: 1, Src1: 2, Src2: 3},
			NSrc:    2,
			SrcRegs: [2]isa.Reg{2, 3},
			SrcVals: [2]int64{int64(i), int64(2 * i)},
			DstVal:  int64(3 * i),
			NextPC:  i + 1,
		}
	}
	return recs
}

// loopRecords is a coherent stream the way the emulator writes one: a
// counted loop whose records after the first iteration are all predictable.
//
//	0: ldi r1, 0
//	1: ld  r2, 100(r1)
//	2: addi r1, r1, 1
//	3: slti r3, r1, n
//	4: bne r3, r0, @1
//	5: halt
func loopRecords(n int) []Record {
	return countedLoop(n, isa.Instruction{Op: isa.LD, Dst: 2, Src1: 1, Imm: 100})
}

// countedLoop is loopRecords with body at PC 1 in place of the load.
func countedLoop(n int, body isa.Instruction) []Record {
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
			return recs
		}
		pc = r.NextPC
	}
}

// TestRecordingRoundTrip replays hand-built streams through a Recording:
// every field of every record must come back, however predictable the
// stream is.
func TestRecordingRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		recs []Record
	}{
		{"empty", nil},
		{"testRecords", testRecords(7)},
		{"sampleRecords", sampleRecords()},
		{"loop", loopRecords(50)},
	} {
		rec := Encode(&SliceSource{Records: tc.recs})
		if rec.Len() != len(tc.recs) {
			t.Errorf("%s: Len = %d, want %d", tc.name, rec.Len(), len(tc.recs))
		}
		got := Collect(rec.Source(), 0)
		if !reflect.DeepEqual(got, tc.recs) {
			t.Errorf("%s: replay diverged from the recorded stream\n got %+v\nwant %+v", tc.name, got, tc.recs)
		}
	}
	// The loop's six static PCs are irregular on their first visit only.
	if rec := Encode(&SliceSource{Records: loopRecords(50)}); rec.Irregular() != 6 {
		t.Errorf("loop: %d irregular records, want one per static PC (6)", rec.Irregular())
	}
}

func TestMemorySourceIndependentCursors(t *testing.T) {
	recs := loopRecords(3)
	rec := Encode(&SliceSource{Records: recs})
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

// TestRecordingBytes checks the footprint accounting against the 104-byte
// Record: a load-free loop costs only its six verbatim first visits, since
// re-execution derives every later record, and a loop with a load adds one
// varint per load.
func TestRecordingBytes(t *testing.T) {
	const n = 10000
	for _, tc := range []struct {
		name string
		recs []Record
		max  float64 // bytes per record
	}{
		{"load-free loop", countedLoop(n, isa.Instruction{Op: isa.XORI, Dst: 2, Src1: 1, Imm: 0x5a}), 0.05},
		{"loop with a load", loopRecords(n), 1},
	} {
		rec := Encode(&SliceSource{Records: tc.recs})
		perRec := float64(rec.Bytes()) / float64(len(tc.recs))
		t.Logf("%s: %d records in %d bytes, %.3f B/record", tc.name, len(tc.recs), rec.Bytes(), perRec)
		if perRec > tc.max {
			t.Errorf("%s: %.3f B/record, want at most %g", tc.name, perRec, tc.max)
		}
		if rec.Irregular() != 6 {
			t.Errorf("%s: %d irregular records, want one per static PC (6)", tc.name, rec.Irregular())
		}
	}
	empty := Encode(&SliceSource{})
	if empty.Bytes() <= 0 || empty.Len() != 0 {
		t.Errorf("empty recording: Bytes %d, Len %d", empty.Bytes(), empty.Len())
	}
}
