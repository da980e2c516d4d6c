package trace

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"valuespec/internal/isa"
)

// Recording is one run of a program, compact and immutable, replayed
// through any number of independent MemorySource cursors. It holds the
// program's code, decoded once into the templates every cursor shares, the
// entry PC, how many records the run executed, and the value each load
// returned, in order, as zigzag varints (binary.AppendVarint).
//
// Each instruction executes atomically on the register state, so memory
// reaches a run only through the values its loads return; every other
// field of every record follows from the code. A cursor is an Exec over
// the recording's code: the instruction comes from the template at the
// expected PC and the source values from its registers. ALU and complex
// results come from isa.Eval; JAL links PC+1; branch directions come from
// isa.BranchTaken, and jumps are always taken; memory addresses are the
// first source plus the immediate. A load's result is the next value of
// the load log. The emulator runs on the same Exec and writes the
// recording as it runs (emu.Record), so a cursor rebuilds each record the
// emulator executed.
type Recording struct {
	code  []template
	entry int
	n     int
	loads []byte // zigzag varint DstVal of each load, in order
}

// NewRecording returns the recording of a run of code from entry that
// executed n records, its loads returning the values in loads, in order,
// as binary.AppendVarint writes them. code must pass program.Validate.
// The recording keeps loads, so the caller must not change it afterwards.
// A load log that is not the run's fails its replay (MemorySource.Err).
func NewRecording(code []isa.Instruction, entry, n int, loads []byte) *Recording {
	if len(loads) < cap(loads) {
		// Trimmed, so that Bytes reports what the recording holds.
		loads = append(make([]byte, 0, len(loads)), loads...)
	}
	return &Recording{code: decode(code), entry: entry, n: n, loads: loads}
}

// Len returns the number of records in the recording.
func (rec *Recording) Len() int { return rec.n }

// Bytes returns the recording's in-memory footprint: its decoded code and
// its load log.
func (rec *Recording) Bytes() int64 {
	return int64(unsafe.Sizeof(*rec)) + int64(cap(rec.loads)) +
		int64(cap(rec.code))*int64(unsafe.Sizeof(template{}))
}

// Source returns a fresh replay cursor over the recording. Cursors share
// the recording read-only, so concurrent simulations can each replay it
// through their own cursor.
func (rec *Recording) Source() *MemorySource {
	return &MemorySource{rec: rec, x: Exec{code: rec.code, PC: rec.entry}, end: int64(rec.n)}
}

// derivation says how an Exec computes the fields of a record from its
// template and its registers.
type derivation uint8

const (
	deriveNop      derivation = iota // NOP, HALT: nothing beyond the fall-through PC
	deriveEval                       // ALU and complex ops: DstVal = isa.Eval
	deriveLoad                       // Addr = SrcVals[0] + Imm, DstVal from memory
	deriveStore                      // Addr = SrcVals[0] + Imm
	deriveBranch                     // taken = isa.BranchTaken, to Target
	deriveJump                       // JMP: always taken, to Target
	deriveLink                       // JAL: DstVal = PC+1, always taken, to Target
	deriveIndirect                   // JR: always taken, to SrcVals[0]
)

// derivationOf returns how the results of op, an op of the ISA, are
// computed.
func derivationOf(op isa.Op) derivation {
	switch isa.ClassOf(op) {
	case isa.ClassALU, isa.ClassComplex:
		return deriveEval
	case isa.ClassLoad:
		return deriveLoad
	case isa.ClassStore:
		return deriveStore
	case isa.ClassBranch:
		return deriveBranch
	case isa.ClassJump:
		switch op {
		case isa.JAL:
			return deriveLink
		case isa.JR:
			return deriveIndirect
		}
		return deriveJump
	}
	return deriveNop
}

// template is what an Exec knows about one static PC.
type template struct {
	instr   isa.Instruction
	nsrc    int
	srcRegs [2]isa.Reg
	derive  derivation
}

// decode returns the template of every instruction of code.
func decode(code []isa.Instruction) []template {
	ts := make([]template, len(code))
	for pc, in := range code {
		srcs, n := in.SrcRegs()
		ts[pc] = template{instr: in, nsrc: n, srcRegs: srcs, derive: derivationOf(in.Op)}
	}
	return ts
}

// Exec is the one executor of the valuespec ISA: the template of each
// static PC, a register file, and the PC and Seq it executes next. The
// emulator runs one over a program and adds the data memory that loads
// read and stores write; a replay cursor runs one over a Recording's code
// and takes each load's value from the recording's log.
type Exec struct {
	code []template // read-only: cursors share their recording's
	// Regs is indexed by any isa.Reg, so reading a source register needs
	// no bounds check.
	Regs [256]int64
	PC   int
	Seq  int64
}

// NewExec returns an Exec executing code from entry. code must pass
// program.Validate.
func NewExec(code []isa.Instruction, entry int) Exec {
	return Exec{code: decode(code), PC: entry}
}

// Rebuild writes into r the record x executes at its PC, which must be
// inside the code. A load's result depends on memory x does not model, so
// Rebuild leaves its DstVal zero for the caller to fill before Advance.
func (x *Exec) Rebuild(r *Record) {
	t := &x.code[x.PC]
	a, b := x.inputs(r, t)
	r.DstVal, r.Addr, r.Taken, r.NextPC = t.results(x.PC, a, b, 0)
}

// inputs writes into r what x takes from the template t and its registers,
// and returns the source values.
func (x *Exec) inputs(r *Record, t *template) (a, b int64) {
	a, b = x.Regs[t.srcRegs[0]], x.Regs[t.srcRegs[1]]
	r.Seq = x.Seq
	r.PC = x.PC
	r.Instr = t.instr
	r.NSrc = t.nsrc
	r.SrcRegs = t.srcRegs
	r.SrcVals = [2]int64{a, b}
	return a, b
}

// results executes t at pc on source values a and b, returning the DstVal,
// Addr, Taken and NextPC they produce. A load's DstVal depends on memory
// the executor does not model, so it is load. These are the derivation
// rules, written once for the emulator and the replay cursor.
func (t *template) results(pc int, a, b, load int64) (dst, addr int64, taken bool, next int) {
	switch t.derive {
	case deriveEval:
		return isa.Eval(t.instr.Op, a, b, t.instr.Imm), 0, false, pc + 1
	case deriveLoad:
		return load, a + t.instr.Imm, false, pc + 1
	case deriveStore:
		return 0, a + t.instr.Imm, false, pc + 1
	case deriveBranch:
		if isa.BranchTaken(t.instr.Op, a, b) {
			return 0, 0, true, t.instr.Target
		}
	case deriveJump:
		return 0, 0, true, t.instr.Target
	case deriveLink:
		return int64(pc + 1), 0, true, t.instr.Target
	case deriveIndirect:
		return 0, 0, true, int(a)
	}
	return 0, 0, false, pc + 1
}

// Advance moves x past r: its result lands in the register file (R0 stays
// zero) and the next record executes at r.NextPC with the following Seq.
func (x *Exec) Advance(r *Record) {
	if r.Instr.Dst != isa.R0 && writesReg[r.Instr.Op] {
		x.Regs[r.Instr.Dst] = r.DstVal
	}
	x.PC = r.NextPC
	x.Seq = r.Seq + 1
}

// writesReg is isa.WritesReg as a table over every opcode byte: Advance
// runs once per record in the emulator and every cursor, and a load is
// cheaper there than the switch.
var writesReg = func() (w [256]bool) {
	for op := range w {
		w[op] = isa.WritesReg(isa.Op(op))
	}
	return w
}()

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
	if s.x.Seq >= s.end {
		return nil, false
	}
	pc := s.x.PC
	if uint(pc) >= uint(len(s.x.code)) {
		return s.fail(fmt.Sprintf("pc %d outside the code", pc))
	}
	t := &s.x.code[pc]
	var load int64
	if t.derive == deriveLoad {
		v, n := binary.Varint(s.rec.loads[s.li:])
		if n <= 0 {
			return s.fail("the load log ran out")
		}
		load = v
		s.li += n
	}
	// Rebuild, spelled out with the load's value: the replay loop then
	// makes one call per record besides isa's.
	r := &s.out
	a, b := s.x.inputs(r, t)
	r.DstVal, r.Addr, r.Taken, r.NextPC = t.results(pc, a, b, load)
	s.x.Advance(r)
	return r, true
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
