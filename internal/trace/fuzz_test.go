package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"valuespec/internal/isa"
)

// normRecord builds the canonical Record a fuzzed tuple corresponds to:
// PC-shaped fields are cut to the 32 bits the VSTR codec carries, and the
// derived fields (SrcRegs, NSrc, Addr) are made consistent with the
// instruction, mirroring what Reader rederives. The caller picks the
// opcode: the VSTR targets fold it into the defined range, while the
// recording target keeps ops outside the ISA.
func normRecord(seq int64, pc, nextPC, target int32, op isa.Op, dst, src1, src2 byte,
	taken bool, imm, v0, v1, dv, addr int64) Record {
	r := Record{
		Seq: seq, PC: int(pc), NextPC: int(nextPC),
		Instr: isa.Instruction{
			Op:     op,
			Dst:    isa.Reg(dst),
			Src1:   isa.Reg(src1),
			Src2:   isa.Reg(src2),
			Target: int(target),
			Imm:    imm,
		},
		Taken:   taken,
		SrcVals: [2]int64{v0, v1},
		DstVal:  dv,
	}
	r.SrcRegs, r.NSrc = r.Instr.SrcRegs()
	if isa.IsMem(r.Instr.Op) {
		r.Addr = addr
	}
	return r
}

// FuzzVSTRRoundTrip checks that a Writer->Reader pass preserves every field
// of every record the emulator can produce.
func FuzzVSTRRoundTrip(f *testing.F) {
	f.Add(int64(0), int32(0), int32(1), int32(0), byte(isa.ADD), byte(1), byte(2), byte(3),
		false, int64(0), int64(7), int64(-7), int64(0), int64(0))
	f.Add(int64(41), int32(100), int32(50), int32(50), byte(isa.BEQ), byte(0), byte(4), byte(4),
		true, int64(-1), int64(1), int64(1), int64(0), int64(0))
	f.Add(int64(1<<40), int32(-1), int32(1<<30), int32(-5), byte(isa.LD), byte(9), byte(20), byte(0),
		false, int64(8), int64(0x400), int64(0), int64(123), int64(0x408))
	f.Add(int64(-3), int32(7), int32(8), int32(0), byte(isa.ST), byte(0), byte(3), byte(20),
		false, int64(4), int64(-9), int64(0x404), int64(0), int64(-16))
	f.Add(int64(2), int32(2), int32(3), int32(0), byte(255), byte(255), byte(255), byte(255),
		true, int64(1<<62), int64(-1<<62), int64(1), int64(-1), int64(3))
	f.Fuzz(func(t *testing.T, seq int64, pc, nextPC, target int32, op, dst, src1, src2 byte,
		taken bool, imm, v0, v1, dv, addr int64) {
		want := normRecord(seq, pc, nextPC, target, isa.Op(op)%(isa.HALT+1), dst, src1, src2, taken, imm, v0, v1, dv, addr)
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(&want); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatalf("reading back a freshly written stream: %v", err)
		}
		got, ok := r.Next()
		if !ok {
			t.Fatalf("record lost in round trip (reader err: %v)", r.Err())
		}
		if got != want {
			t.Fatalf("round trip changed the record\nwrote: %+v\nread:  %+v", want, got)
		}
		if _, ok := r.Next(); ok {
			t.Fatal("phantom second record")
		}
		if err := r.Err(); err != nil {
			t.Fatalf("clean EOF reported an error: %v", err)
		}
	})
}

// FuzzRecordingRoundTrip checks that any record sequence replays
// identically through a Recording. A mode byte picks how each record is
// drawn from the input: an arbitrary record (normRecord over the full field
// ranges, opcodes outside the ISA included); an arbitrary record on a
// 16-instruction code space that picks up the stream's Seq, so templates
// are revisited and mispredicted; or the replay cursor's own re-execution
// with a fuzzed load result, so the regular path of every derivation is
// reached too. At every record the encoder's in-place check must agree
// with its reference, in both directions.
func FuzzRecordingRoundTrip(f *testing.F) {
	f.Add([]byte{})
	// ALU: add r3, r1, r2 in a jmp loop.
	f.Add(seedDraws(
		codeDraw(0, 1, isa.Instruction{Op: isa.ADD, Dst: 3, Src1: 1, Src2: 2}, 4, -9, -5),
		codeDraw(1, 0, isa.Instruction{Op: isa.JMP, Target: 0}, 0, 0, 0),
		predictedDraws(0, 0, 0, 0, 0, 0)))
	// LD: ld r2, 8(r1) in a jmp loop, its results stored whatever they are.
	f.Add(seedDraws(
		codeDraw(5, 6, isa.Instruction{Op: isa.LD, Dst: 2, Src1: 1, Imm: 8}, 16, 0, -3),
		codeDraw(6, 5, isa.Instruction{Op: isa.JMP, Target: 5}, 0, 0, 0),
		predictedDraws(-1, 0, 300, 0, 1<<40, 0, math.MinInt64, 0)))
	// JAL and JR: jal r31, @9; jr r31 back to 8; jmp @7.
	f.Add(seedDraws(
		codeDraw(7, 9, isa.Instruction{Op: isa.JAL, Dst: 31, Target: 9}, 0, 0, 8),
		codeDraw(9, 8, isa.Instruction{Op: isa.JR, Src1: 31}, 8, 0, 0),
		codeDraw(8, 7, isa.Instruction{Op: isa.JMP, Target: 7}, 0, 0, 0),
		predictedDraws(0, 0, 0, 0, 0, 0, 0, 0, 0)))
	// A conditional branch, taken and then not: addi r1, r1, -1;
	// bne r1, r0, @3 counting r1 down from 2.
	f.Add(seedDraws(
		codeDraw(3, 4, isa.Instruction{Op: isa.ADDI, Dst: 1, Src1: 1, Imm: -1}, 3, 0, 2),
		codeDraw(4, 3, isa.Instruction{Op: isa.BNE, Src1: 1, Src2: isa.R0, Target: 3}, 2, 0, 0),
		predictedDraws(0, 0, 0, 0)))
	// An op outside the ISA replaces a learned template and is then stored
	// at every visit: neither isa.Eval nor isa.BranchTaken ever sees it.
	f.Add(seedDraws(
		codeDraw(2, 2, isa.Instruction{Op: isa.ADDI, Dst: 1, Src1: 1, Imm: 1}, 0, 0, 1),
		codeDraw(2, 2, isa.Instruction{Op: 200, Dst: 5, Src1: 1, Src2: 2}, 1, 2, 3),
		codeDraw(2, 2, isa.Instruction{Op: 200, Dst: 5, Src1: 1, Src2: 2}, 1, 2, 3),
		predictedDraws(0)))
	// Records one derived field away from the cursor's own: each is stored
	// verbatim (TestRecordingOneFieldOff).
	for _, c := range oneFieldOff(1) {
		f.Add(c.draws)
	}
	f.Fuzz(func(t *testing.T, data []byte) { roundTripDraws(t, data) })
}

// roundTripDraws encodes the records FuzzRecordingRoundTrip draws from
// data, checking the encoder's in-place check against its reference at
// each, and replays the recording, which must give every record back. It
// returns the recording.
func roundTripDraws(t *testing.T, data []byte) *Recording {
	t.Helper()
	in := fuzzReader(data)
	var e encoder
	var want []Record
	for len(in) > 0 && len(want) < 512 {
		mode := in.u8() % 3
		var r Record
		if tmpl := e.x.expected(); mode == 2 && tmpl != nil {
			e.x.rebuild(&r, tmpl, in.i64())
		} else if mode == 1 {
			pc, next, target := in.u8()%16, in.u8()%16, in.u8()%16
			r = normRecord(e.x.Seq, int32(pc), int32(next), int32(target), isa.Op(in.u8()), in.u8(), in.u8(), in.u8(),
				in.u8()&1 != 0, int64(int8(in.u8())), in.i64(), in.i64(), in.i64(), in.i64())
		} else {
			r = normRecord(in.i64(), int32(in.i64()), int32(in.i64()), int32(in.i64()), isa.Op(in.u8()), in.u8(), in.u8(), in.u8(),
				in.u8()&1 != 0, in.i64(), in.i64(), in.i64(), in.i64(), in.i64())
		}
		if tmpl := e.x.expected(); tmpl != nil {
			// The reference rebuilds the cursor's record into scratch and
			// compares the two whole.
			var ref Record
			e.x.rebuild(&ref, tmpl, r.DstVal)
			if inPlace := e.x.rebuilds(&r, tmpl); inPlace != (ref == r) {
				t.Fatalf("record %d: in-place check says regular=%t, rebuild-and-compare %t\nrecord:  %+v\nrebuilt: %+v",
					len(want), inPlace, ref == r, r, ref)
			}
		}
		e.append(&r)
		want = append(want, r)
	}
	rec := e.finish()
	if rec.Len() != len(want) || rec.Irregular() > rec.Len() {
		t.Fatalf("Len %d, Irregular %d for %d records", rec.Len(), rec.Irregular(), len(want))
	}
	got := Collect(rec.Source(), 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, recorded %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d changed in the round trip\nrecorded: %+v\nreplayed: %+v", i, want[i], got[i])
		}
	}
	return rec
}

// oneFieldOff returns draw streams whose last record differs by d from the
// replay cursor's derivation in exactly one field: the DstVal of a
// non-load, Addr, Taken (any d != 0 sets it) or NextPC. Each stream is a
// loop of a body at PC 0 that writes none of its inputs and jmp @0 at PC 1:
// both are drawn verbatim, replayed once as the cursor derives them, and
// then the body comes once more, off by d. So with d = 0 the last record
// is the cursor's own.
func oneFieldOff(d int64) []fieldOff {
	add := Record{NextPC: 1, Instr: isa.Instruction{Op: isa.ADD, Dst: 3, Src1: 1, Src2: 2}, SrcVals: [2]int64{4, -9}, DstVal: -5}
	st := Record{NextPC: 1, Instr: isa.Instruction{Op: isa.ST, Src1: 1, Src2: 2, Imm: 8}, SrcVals: [2]int64{16, 7}, Addr: 24}
	bne := Record{NextPC: 1, Instr: isa.Instruction{Op: isa.BNE, Src1: 1, Src2: 2}, SrcVals: [2]int64{5, 5}}
	dst, addr, taken, next := add, st, bne, add
	dst.DstVal += d
	addr.Addr += d
	taken.Taken = d != 0
	next.NextPC += int(d)
	jmp := recordDraw(Record{Instr: isa.Instruction{Op: isa.JMP}, PC: 1, Taken: true})
	loop := func(body, last Record) []byte {
		return seedDraws(recordDraw(body), jmp, predictedDraws(0, 0), recordDraw(last))
	}
	return []fieldOff{
		{"DstVal", loop(add, dst)},
		{"Addr", loop(st, addr)},
		{"Taken", loop(bne, taken)},
		{"NextPC", loop(add, next)},
	}
}

// fieldOff is one oneFieldOff stream: the field that is off, and the draws.
type fieldOff struct {
	field string
	draws []byte
}

// TestRecordingOneFieldOff runs the one-field-off streams: the last record
// is regular as the cursor derives it, and stored verbatim once one
// derived field is off.
func TestRecordingOneFieldOff(t *testing.T) {
	exact, off := oneFieldOff(0), oneFieldOff(1)
	for i := range exact {
		if rec := roundTripDraws(t, exact[i].draws); !slices.Equal(rec.irregIdx, []int{0, 1}) {
			t.Errorf("%s exact: irregular records %v, want the loop's first visits [0 1]", exact[i].field, rec.irregIdx)
		}
		if rec := roundTripDraws(t, off[i].draws); !slices.Equal(rec.irregIdx, []int{0, 1, 4}) {
			t.Errorf("%s off by one: irregular records %v, want [0 1 4]", off[i].field, rec.irregIdx)
		}
	}
}

// TestRebuildsEveryField perturbs each field of a record the cursor
// rebuilds, one at a time, found by reflection so that a field added to
// Record is covered too: the encoder's check must reject every one.
func TestRebuildsEveryField(t *testing.T) {
	x := NewExec([]isa.Instruction{{Op: isa.ADDI, Dst: 1, Src1: 2, Imm: 3}}, 0)
	x.Regs[2] = 5
	tmpl := x.expected()
	var r Record
	x.rebuild(&r, tmpl, 0)
	if !x.rebuilds(&r, tmpl) {
		t.Fatalf("the cursor's own record %+v is not regular", r)
	}
	fields := 0
	var perturb func(v reflect.Value, path string)
	perturb = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				perturb(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				perturb(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
			return
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint8:
			v.SetUint(v.Uint() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("%s: no perturbation for kind %s", path, v.Kind())
		}
		if x.rebuilds(&r, tmpl) {
			t.Errorf("%s perturbed: the check still calls %+v regular", path, r)
		}
		v.Set(old)
		fields++
	}
	perturb(reflect.ValueOf(&r).Elem(), "Record")
	if top := reflect.TypeOf(r).NumField(); fields < top {
		t.Errorf("perturbed %d scalars, fewer than Record's %d fields", fields, top)
	}
}

// codeDraw encodes one code-space draw of FuzzRecordingRoundTrip: in at pc,
// continuing at next, having read v0 and v1 and produced dst.
func codeDraw(pc, next byte, in isa.Instruction, v0, v1, dst int64) []byte {
	return recordDraw(Record{PC: int(pc), NextPC: int(next), Instr: in, SrcVals: [2]int64{v0, v1}, DstVal: dst})
}

// recordDraw encodes a code-space draw of FuzzRecordingRoundTrip that yields
// r with the stream's Seq. r's PCs and target must be below 16 and its
// immediate must fit a byte; its SrcRegs and NSrc follow from Instr, and
// only a memory op keeps its Addr.
func recordDraw(r Record) []byte {
	in := r.Instr
	var taken byte
	if r.Taken {
		taken = 1
	}
	b := []byte{1, byte(r.PC), byte(r.NextPC), byte(in.Target), byte(in.Op), byte(in.Dst), byte(in.Src1), byte(in.Src2), taken, byte(int8(in.Imm))}
	for _, v := range []int64{r.SrcVals[0], r.SrcVals[1], r.DstVal, r.Addr} {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// predictedDraws encodes one re-execution draw per load result: the
// cursor's own record at its expected PC.
func predictedDraws(loads ...int64) []byte {
	var b []byte
	for _, v := range loads {
		b = binary.BigEndian.AppendUint64(append(b, 2), uint64(v))
	}
	return b
}

func seedDraws(draws ...[]byte) []byte { return bytes.Join(draws, nil) }

// fuzzReader hands out a fuzz input's bytes as fields, zero once drained.
type fuzzReader []byte

func (b *fuzzReader) u8() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzReader) i64() int64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b.u8())
	}
	return int64(v)
}

// FuzzVSTRReader throws arbitrary bytes at the decoder: corrupt magic,
// wrong versions and truncated records must fail with an error — never a
// panic — and a truncation mid-record must be reported through Err.
func FuzzVSTRReader(f *testing.F) {
	header := append([]byte(traceMagic), 1, 0, 0, 0)
	f.Add([]byte{})
	f.Add([]byte("VST"))
	f.Add([]byte("XSTR\x01\x00\x00\x00"))
	f.Add(append([]byte(traceMagic), 2, 0, 0, 0)) // unsupported version
	f.Add(header)                                 // empty but valid stream
	f.Add(append(append([]byte{}, header...), make([]byte, recordSize)...))
	f.Add(append(append([]byte{}, header...), make([]byte, recordSize/2)...)) // truncated record
	{
		// A valid LD record missing its trailing address word.
		var b bytes.Buffer
		w, _ := NewWriter(&b)
		rec := Record{Instr: isa.Instruction{Op: isa.LD, Dst: 1, Src1: 20}, NSrc: 1, Addr: 0x400}
		_ = w.Write(&rec)
		_ = w.Flush()
		f.Add(b.Bytes()[:b.Len()-8])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // malformed header rejected cleanly
		}
		n := 0
		for {
			if _, ok := r.Next(); !ok {
				break
			}
			n++
		}
		if _, ok := r.Next(); ok {
			t.Fatal("Next returned a record after reporting exhaustion")
		}
		// Whatever decoded must be byte-consistent: every record consumed
		// at least recordSize payload bytes.
		if maxRecs := (len(data) - len(header)) / recordSize; n > maxRecs {
			t.Fatalf("decoded %d records from %d payload bytes", n, len(data)-len(header))
		}
		if err := r.Err(); err != nil {
			// Errors are fine (truncation/corruption); they must be sticky.
			if err2 := r.Err(); err2 != err {
				t.Fatalf("Err not sticky: %v then %v", err, err2)
			}
		}
	})
}

// TestReaderRejectsCorruptHeaders pins the clean-failure contract the fuzz
// targets explore: every malformed prefix is an error from NewReader, and a
// mid-record truncation surfaces through Err, not a panic or a short record.
func TestReaderRejectsCorruptHeaders(t *testing.T) {
	for _, data := range [][]byte{
		{}, []byte("V"), []byte("VSTR"), []byte("VSTR\x01\x00\x00"),
		[]byte("RSTV\x01\x00\x00\x00"), []byte("VSTR\x63\x00\x00\x00"),
	} {
		if _, err := NewReader(bytes.NewReader(data)); err == nil {
			t.Errorf("NewReader accepted %q", data)
		}
	}
	// Truncated record body.
	head := append([]byte(traceMagic), 1, 0, 0, 0)
	r, err := NewReader(bytes.NewReader(append(head, 1, 2, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Fatal("Next decoded a truncated record")
	}
	if r.Err() == nil {
		t.Fatal("mid-record truncation not reported by Err")
	}
}
