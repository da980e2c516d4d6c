package trace

import (
	"encoding/binary"
	"unsafe"

	"valuespec/internal/isa"
)

// Recording is a compact, immutable encoding of a record stream, built by
// Encode and replayed through any number of independent MemorySource
// cursors. It stores only what re-execution cannot recompute.
//
// A replay cursor carries an Exec: the template of each static PC seen so
// far (instruction, source registers, and how the op's results are
// derived), a shadow register file, and the PC and Seq it expects next.
// From that state it re-executes the next record: the instruction comes
// from the template at the expected PC and the source values from the
// shadow registers. ALU and complex results come from isa.Eval; JAL links
// PC+1; branch directions come from isa.BranchTaken, and jumps are always
// taken; memory addresses are the first source plus the immediate. Only a
// load's result depends on memory the cursor does not model, so each load
// stores its value as a zigzag varint.
//
// A record is regular when that re-execution rebuilds it exactly. The
// encoder checks this in place, without building the cursor's record: the
// record's Seq, PC, instruction and sources must match the template and the
// shadow registers, and its DstVal, Addr, Taken and NextPC what the
// derivation rules, which rebuild shares, produce from them. An irregular
// record is kept verbatim, and a sorted list of their indices tells the
// cursor where they fall. A misprediction therefore costs bytes, never
// correctness. On emulator traces only the first visit of each static PC
// is irregular: the emulator executes with the same rules over the whole
// program, so once the cursor has learned a PC's template its shadow
// registers mirror the emulator's.
type Recording struct {
	n         int
	loads     []byte // zigzag varint DstVal of each regular load, in order
	irregIdx  []int  // index of each irregular record, ascending
	irregular []Record
	codeLen   int // template table length a cursor needs
}

// maxCodeLen bounds the per-PC template table. Records at PCs outside
// [0, maxCodeLen) are always stored verbatim, so a stray PC costs bytes
// rather than a huge table in every cursor.
const maxCodeLen = 1 << 16

// Encode drains src into a new Recording. The source's records are encoded
// one at a time as they arrive, in place when src is a RefSource; no
// []Record is built.
func Encode(src Source) *Recording {
	var e encoder
	if rs, ok := src.(RefSource); ok {
		for r, ok := rs.NextRef(); ok; r, ok = rs.NextRef() {
			e.append(r)
		}
		return e.finish()
	}
	for r, ok := src.Next(); ok; r, ok = src.Next() {
		e.append(&r)
	}
	return e.finish()
}

// Len returns the number of records in the recording.
func (rec *Recording) Len() int { return rec.n }

// Irregular returns how many records the recording stores verbatim.
func (rec *Recording) Irregular() int { return len(rec.irregular) }

// Bytes returns the recording's in-memory footprint.
func (rec *Recording) Bytes() int64 {
	return int64(unsafe.Sizeof(*rec)) + int64(cap(rec.loads)) +
		int64(cap(rec.irregIdx))*int64(unsafe.Sizeof(int(0))) +
		int64(cap(rec.irregular))*int64(unsafe.Sizeof(Record{}))
}

// Source returns a fresh replay cursor over the recording. Cursors share
// the recording read-only, so concurrent simulations can each replay it
// through their own cursor.
func (rec *Recording) Source() *MemorySource {
	s := &MemorySource{rec: rec, x: Exec{code: make([]template, rec.codeLen)}}
	s.nextIrr = s.irregAt(0)
	return s
}

// derivation says how a cursor recomputes the fields of a record from its
// template and the shadow registers.
type derivation uint8

const (
	deriveNone     derivation = iota // no template: records here are stored verbatim
	deriveNop                        // NOP, HALT: nothing beyond the fall-through PC
	deriveEval                       // ALU and complex ops: DstVal = isa.Eval
	deriveLoad                       // Addr = SrcVals[0] + Imm, DstVal stored
	deriveStore                      // Addr = SrcVals[0] + Imm
	deriveBranch                     // taken = isa.BranchTaken, to Target
	deriveJump                       // JMP: always taken, to Target
	deriveLink                       // JAL: DstVal = PC+1, always taken, to Target
	deriveIndirect                   // JR: always taken, to SrcVals[0]
)

// derivationOf returns how the results of op are recomputed. An op outside
// the ISA has no semantics to re-execute, so its records stay verbatim and
// it never reaches isa.Eval or isa.BranchTaken, which panic on it.
func derivationOf(op isa.Op) derivation {
	if !op.Valid() {
		return deriveNone
	}
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

// template is what a cursor knows about one static PC.
type template struct {
	instr   isa.Instruction
	nsrc    int
	srcRegs [2]isa.Reg
	derive  derivation
}

// Exec is the executor a Recording is built on: the template of each
// static PC, a shadow register file, and the PC and Seq it expects next.
// A replay cursor and the encoder run one over the records they meet, the
// encoder to check what the cursor will rebuild. The emulator runs one
// over a whole program and adds only the data memory that loads read and
// stores write.
type Exec struct {
	code []template
	// Regs is indexed by any isa.Reg, so a hand-built record naming a
	// register past isa.NumRegs is predicted like any other.
	Regs [256]int64
	PC   int
	Seq  int64
}

// NewExec returns an Exec expecting its first record at entry, with the
// template of every instruction of code decoded. Every op in code must be
// in the ISA.
func NewExec(code []isa.Instruction, entry int) Exec {
	x := Exec{code: make([]template, len(code)), PC: entry}
	for pc, in := range code {
		srcs, n := in.SrcRegs()
		x.code[pc] = template{instr: in, nsrc: n, srcRegs: srcs, derive: derivationOf(in.Op)}
	}
	return x
}

// Rebuild writes into r the record x executes at its expected PC. A load's
// result depends on memory x does not model, so Rebuild leaves its DstVal
// zero for the caller to fill before Advance.
func (x *Exec) Rebuild(r *Record) { x.rebuild(r, &x.code[x.PC], 0) }

// expected returns the template at x's expected PC, or nil if there is none
// to re-execute: a record there can only be stored verbatim.
func (x *Exec) expected() *template {
	if pc := x.PC; pc >= 0 && pc < len(x.code) && x.code[pc].derive != deriveNone {
		return &x.code[pc]
	}
	return nil
}

// rebuild writes into r the record x re-executes at its expected PC, whose
// template is t (never deriveNone). load is the result of a load; other
// derivations ignore it.
func (x *Exec) rebuild(r *Record, t *template, load int64) {
	a, b := x.inputs(r, t)
	r.DstVal, r.Addr, r.Taken, r.NextPC = t.results(x.PC, a, b, load)
}

// inputs writes into r what x takes from the template t and the shadow
// registers, and returns the source values.
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

// rebuilds reports whether rebuild with template t (never deriveNone),
// given r's DstVal as a load's result, would write r exactly, field for
// field. It is the encoder's check, made without writing a record.
func (x *Exec) rebuilds(r *Record, t *template) bool {
	a, b := x.Regs[t.srcRegs[0]], x.Regs[t.srcRegs[1]]
	if r.Seq != x.Seq || r.PC != x.PC || r.Instr != t.instr || r.NSrc != t.nsrc ||
		r.SrcRegs != t.srcRegs || r.SrcVals != [2]int64{a, b} {
		return false
	}
	dst, addr, taken, next := t.results(x.PC, a, b, r.DstVal)
	return r.DstVal == dst && r.Addr == addr && r.Taken == taken && r.NextPC == next
}

// results re-executes t at pc on source values a and b, returning the
// DstVal, Addr, Taken and NextPC they produce. A load's DstVal depends on
// memory the executor does not model, so it is load. These are the
// derivation rules, written once for rebuild and the encoder's check.
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

// learn takes what an irregular record r teaches: the values of the
// registers it read, and its instruction as the template of its PC. After
// a program boundary in a concatenated stream, this resynchronises each
// stale register on its first read instead of mispredicting every read.
func (x *Exec) learn(r *Record) {
	for i := 0; i < r.NSrc && i < len(r.SrcRegs); i++ {
		if reg := r.SrcRegs[i]; reg != isa.R0 {
			x.Regs[reg] = r.SrcVals[i]
		}
	}
	if r.PC < 0 || r.PC >= len(x.code) {
		return
	}
	x.code[r.PC] = template{
		instr:   r.Instr,
		nsrc:    r.NSrc,
		srcRegs: r.SrcRegs,
		derive:  derivationOf(r.Instr.Op),
	}
}

// Advance moves x past r: its result lands in the shadow register file
// (R0 stays zero) and the next record is expected at r.NextPC with the
// following Seq.
func (x *Exec) Advance(r *Record) {
	if r.Instr.Dst != isa.R0 && writesReg[r.Instr.Op] {
		x.Regs[r.Instr.Dst] = r.DstVal
	}
	x.PC = r.NextPC
	x.Seq = r.Seq + 1
}

// writesReg is isa.WritesReg as a table over every opcode byte: Advance
// runs once per record in the emulator, the encoder and every cursor, and
// a load is cheaper there than the switch.
var writesReg = func() (w [256]bool) {
	for op := range w {
		w[op] = isa.WritesReg(isa.Op(op))
	}
	return w
}()

// encoder builds a Recording one record at a time.
type encoder struct {
	x   Exec
	rec Recording
}

func (e *encoder) append(r *Record) {
	i := e.rec.n
	e.rec.n++
	if t := e.x.expected(); t != nil && e.x.rebuilds(r, t) {
		if t.derive == deriveLoad {
			e.rec.loads = binary.AppendVarint(e.rec.loads, r.DstVal)
		}
		e.x.Advance(r)
		return
	}
	e.verbatim(r, i)
}

// verbatim stores r, record i, as an irregular record and learns from it.
// It is apart from append so that the regular path keeps a small frame.
func (e *encoder) verbatim(r *Record, i int) {
	e.rec.irregIdx = append(e.rec.irregIdx, i)
	e.rec.irregular = append(e.rec.irregular, *r)
	if r.PC >= len(e.x.code) && r.PC < maxCodeLen {
		e.x.code = append(e.x.code, make([]template, r.PC+1-len(e.x.code))...)
	}
	e.x.learn(r)
	e.x.Advance(r)
}

// finish returns the recording, its slices trimmed to their length so that
// Bytes reports what the recording really holds.
func (e *encoder) finish() *Recording {
	rec := e.rec
	rec.loads = trim(rec.loads)
	rec.irregIdx = trim(rec.irregIdx)
	rec.irregular = trim(rec.irregular)
	rec.codeLen = len(e.x.code)
	return &rec
}

func trim[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// MemorySource is a replay cursor over a Recording, and a RefSource: it
// decodes each record into per-cursor scratch. Create one per replaying
// consumer with Recording.Source.
type MemorySource struct {
	rec     *Recording
	x       Exec
	i       int // next record
	li      int // next byte of rec.loads
	iri     int // next irregular record
	nextIrr int // index of that record, rec.n once none is left
	out     Record
}

// irregAt returns the index of irregular record k, or rec.n past the last.
func (s *MemorySource) irregAt(k int) int {
	if k < len(s.rec.irregIdx) {
		return s.rec.irregIdx[k]
	}
	return s.rec.n
}

// Next implements Source.
func (s *MemorySource) Next() (Record, bool) {
	r, ok := s.NextRef()
	if !ok {
		return Record{}, false
	}
	return *r, true
}

// NextRef implements RefSource: it decodes the next record into the
// cursor's scratch and returns a pointer to it.
func (s *MemorySource) NextRef() (*Record, bool) {
	i := s.i
	if i >= s.rec.n {
		return nil, false
	}
	s.i++
	r := &s.out
	if i == s.nextIrr {
		*r = s.rec.irregular[s.iri]
		s.iri++
		s.nextIrr = s.irregAt(s.iri)
		s.x.learn(r)
		s.x.Advance(r)
		return r, true
	}
	t := &s.x.code[s.x.PC]
	var load int64
	if t.derive == deriveLoad {
		v, n := binary.Varint(s.rec.loads[s.li:])
		load = v
		s.li += n
	}
	// rebuild, spelled out because it is too large to inline: the replay
	// loop then makes one call per record besides isa's.
	a, b := s.x.inputs(r, t)
	r.DstVal, r.Addr, r.Taken, r.NextPC = t.results(s.x.PC, a, b, load)
	s.x.Advance(r)
	return r, true
}

// Len returns the total number of records in the recording.
func (s *MemorySource) Len() int { return s.rec.n }
