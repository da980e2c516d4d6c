package trace

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"valuespec/internal/isa"
)

// Recording is one run of a program, compact and immutable, replayed
// through any number of independent MemorySource cursors. It holds the
// program's code, decoded once for every cursor to share, the entry PC,
// how many records the run executed, and the value each load returned, in
// order, as zigzag varints (binary.AppendVarint).
//
// Each instruction executes atomically on the register state, so memory
// reaches a run only through the values its loads return; every other
// field of every record follows from the code. A cursor is an Exec over
// the recording's code that executes each instruction by isa.Execute, a
// load's value being the next value of the load log. The emulator
// executes by isa.Execute too, against its data memory, and writes the
// recording as it runs (emu.Record), so a cursor executes each record the
// emulator executed by the same rules.
type Recording struct {
	code  []isa.Decoded
	entry int
	n     int
	loads []byte // zigzag varint DstVal of each load, in order
}

// NewRecording returns the recording of a run of code from entry that
// executed n records, its loads returning the values in loads, in order,
// as binary.AppendVarint writes them. code is the isa.Decode of a program
// that passes program.Validate. The recording keeps code and loads, so
// the caller must not change them afterwards. A load log that is not the
// run's fails its replay (MemorySource.Err).
func NewRecording(code []isa.Decoded, entry, n int, loads []byte) *Recording {
	if len(loads) < cap(loads) {
		// Trimmed, so that Bytes reports what the recording holds.
		loads = append(make([]byte, 0, len(loads)), loads...)
	}
	return &Recording{code: code, entry: entry, n: n, loads: loads}
}

// Len returns the number of records in the recording.
func (rec *Recording) Len() int { return rec.n }

// Bytes returns the recording's in-memory footprint: its decoded code and
// its load log.
func (rec *Recording) Bytes() int64 {
	return int64(unsafe.Sizeof(*rec)) + int64(cap(rec.loads)) +
		int64(cap(rec.code))*int64(unsafe.Sizeof(isa.Decoded{}))
}

// Source returns a fresh replay cursor over the recording. Cursors share
// the recording read-only, so concurrent simulations can each replay it
// through their own cursor.
func (rec *Recording) Source() *MemorySource {
	return &MemorySource{rec: rec, x: Exec{Code: rec.code, PC: rec.entry}, end: int64(rec.n)}
}

// Exec is what an executor of the ISA keeps: decoded code, a register
// file, and the PC and Seq it executes next. The emulator runs one over a
// program, against its data memory; a replay cursor runs one over a
// Recording's code, its loads reading the recording's log. Both execute
// each instruction by isa.Execute and retire it by Retire.
type Exec struct {
	Code []isa.Decoded // read-only: cursors share their recording's
	// Regs is indexed by any isa.Reg, so reading a source register needs
	// no bounds check, and isa.Discard is one of them.
	Regs [256]int64
	PC   int
	Seq  int64
}

// Retire moves x past d, the instruction at x.PC, which executed on source
// values a and b and returned dst, addr, taken and next (isa.Execute): the
// result lands in its register and x takes the next PC and Seq. Unless r
// is nil, Retire first writes d's record into r.
func (x *Exec) Retire(r *Record, d *isa.Decoded, a, b, dst, addr int64, taken bool, next int) {
	if r != nil {
		// Field by field: a composite literal would be built aside and
		// copied.
		r.Seq, r.PC, r.Instr, r.NSrc, r.SrcRegs = x.Seq, x.PC, d.Instruction, d.NSrc, d.SrcRegs
		r.SrcVals[0], r.SrcVals[1], r.DstVal, r.Addr, r.Taken, r.NextPC = a, b, dst, addr, taken, next
	}
	x.Regs[d.DstReg] = dst
	x.PC = next
	x.Seq++
}

// MemorySource is a replay cursor over a Recording, and a RefSource: it
// executes each record into per-cursor scratch. Create one per replaying
// consumer with Recording.Source.
type MemorySource struct {
	rec *Recording
	x   Exec
	end int64 // Seq at which the stream ends: rec.n, or where it failed
	li  int   // next byte of rec.loads
	err error
	out Record
}

// Next implements Source.
func (s *MemorySource) Next() (Record, bool) {
	r, ok := s.NextRef()
	if !ok {
		return Record{}, false
	}
	return *r, true
}

// NextRef implements RefSource: it executes the next record into the
// cursor's scratch and returns a pointer to it.
func (s *MemorySource) NextRef() (*Record, bool) {
	x := &s.x
	if x.Seq >= s.end {
		return nil, false
	}
	pc := x.PC
	if uint(pc) >= uint(len(x.Code)) {
		return s.fail(fmt.Sprintf("pc %d outside the code", pc))
	}
	d := &x.Code[pc]
	a, b := x.Regs[d.SrcRegs[0]], x.Regs[d.SrcRegs[1]]
	var load int64
	if d.Op == isa.LD {
		v, n := binary.Varint(s.rec.loads[s.li:])
		if n <= 0 {
			return s.fail("the load log ran out")
		}
		load = v
		s.li += n
	}
	dst, addr, taken, next := isa.Execute(&d.Instruction, pc, a, b, load)
	x.Retire(&s.out, d, a, b, dst, addr, taken, next)
	return &s.out, true
}

// fail ends the stream where it stands, with an error for Err.
func (s *MemorySource) fail(why string) (*Record, bool) {
	s.err = fmt.Errorf("trace: replay failed at record %d of %d: %s", s.x.Seq, s.rec.n, why)
	s.end = s.x.Seq
	return nil, false
}

// Err reports a replay that did not consume the load log exactly: a load
// found the log empty or corrupt, control left the code, or, once every
// record has been delivered, values remain in the log. Each is an O(1)
// check; a replay that ended with Err nil read each value once.
func (s *MemorySource) Err() error {
	if s.err == nil && s.x.Seq == int64(s.rec.n) && s.li != len(s.rec.loads) {
		return fmt.Errorf("trace: %d of the load log's %d bytes left after the last record",
			len(s.rec.loads)-s.li, len(s.rec.loads))
	}
	return s.err
}

// Len returns the total number of records in the recording.
func (s *MemorySource) Len() int { return s.rec.n }
