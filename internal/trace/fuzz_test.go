package trace

import (
	"bytes"
	"testing"

	"valuespec/internal/isa"
)

// normRecord builds the canonical Record a fuzzed tuple corresponds to:
// PC-shaped fields are cut to the 32 bits the VSTR codec carries, and the
// derived fields (SrcRegs, NSrc, Addr) are made consistent with the
// instruction, mirroring what Reader rederives.
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
