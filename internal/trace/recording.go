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
// A replay cursor carries a little architectural state: the template of
// each static PC seen so far (instruction, source registers, and how the
// op's results are derived), a shadow register file, and the PC and Seq it
// expects next. From that state it re-executes the next record: the
// instruction comes from the template at the expected PC and the source
// values from the shadow registers. ALU and complex results come from
// isa.Eval, the emulator's own semantics; JAL links PC+1; branch directions
// come from isa.BranchTaken, and jumps are always taken; memory addresses
// are the first source plus the immediate. Only a load's result depends on
// memory the cursor does not model, so each load stores its value as a
// zigzag varint.
//
// A record is regular when that re-execution rebuilds it exactly, and the
// encoder checks this by running the cursor's own rebuild and comparing
// every field. An irregular record is kept verbatim, and a sorted list of
// their indices tells the cursor where they fall. A misprediction therefore
// costs bytes, never correctness. On emulator traces only the first visit
// of each static PC is irregular: the shadow registers mirror the
// emulator's, and the emulator's code never changes.
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
// one at a time as they arrive; no []Record is built.
func Encode(src Source) *Recording {
	var e encoder
	for {
		r, ok := src.Next()
		if !ok {
			return e.finish()
		}
		e.append(&r)
	}
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
	s := &MemorySource{rec: rec, st: state{code: make([]template, rec.codeLen)}}
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

// state is what a replay cursor carries from one record to the next; the
// encoder keeps the same state to predict what the cursor will rebuild.
type state struct {
	code []template
	// regs is indexed by any isa.Reg, so a hand-built record naming a
	// register past isa.NumRegs is predicted like any other.
	regs [256]int64
	pc   int
	seq  int64
}

// rebuild writes into r the record the state re-executes at its expected
// PC, whose template is t (never deriveNone). load is the result of a
// load; other derivations ignore it.
func (st *state) rebuild(r *Record, t *template, load int64) {
	a, b := st.regs[t.srcRegs[0]], st.regs[t.srcRegs[1]]
	r.Seq = st.seq
	r.PC = st.pc
	r.Instr = t.instr
	r.NSrc = t.nsrc
	r.SrcRegs = t.srcRegs
	r.SrcVals = [2]int64{a, b}
	r.DstVal = 0
	r.Addr = 0
	r.Taken = false
	r.NextPC = st.pc + 1
	switch t.derive {
	case deriveEval:
		r.DstVal = isa.Eval(t.instr.Op, a, b, t.instr.Imm)
	case deriveLoad:
		r.Addr = a + t.instr.Imm
		r.DstVal = load
	case deriveStore:
		r.Addr = a + t.instr.Imm
	case deriveBranch:
		if isa.BranchTaken(t.instr.Op, a, b) {
			r.Taken = true
			r.NextPC = t.instr.Target
		}
	case deriveJump:
		r.Taken = true
		r.NextPC = t.instr.Target
	case deriveLink:
		r.DstVal = int64(st.pc + 1)
		r.Taken = true
		r.NextPC = t.instr.Target
	case deriveIndirect:
		r.Taken = true
		r.NextPC = int(a)
	}
}

// learn takes what an irregular record r teaches: the values of the
// registers it read, and its instruction as the template of its PC. After
// a program boundary in a concatenated stream, this resynchronises each
// stale register on its first read instead of mispredicting every read.
func (st *state) learn(r *Record) {
	for i := 0; i < r.NSrc && i < len(r.SrcRegs); i++ {
		if reg := r.SrcRegs[i]; reg != isa.R0 {
			st.regs[reg] = r.SrcVals[i]
		}
	}
	if r.PC < 0 || r.PC >= len(st.code) {
		return
	}
	st.code[r.PC] = template{
		instr:   r.Instr,
		nsrc:    r.NSrc,
		srcRegs: r.SrcRegs,
		derive:  derivationOf(r.Instr.Op),
	}
}

// advance moves the state past r: its result lands in the shadow register
// file (R0 stays zero, as in the emulator) and the next record is expected
// at r.NextPC with the following Seq.
func (st *state) advance(r *Record) {
	if r.Instr.Dst != isa.R0 && isa.WritesReg(r.Instr.Op) {
		st.regs[r.Instr.Dst] = r.DstVal
	}
	st.pc = r.NextPC
	st.seq = r.Seq + 1
}

// encoder builds a Recording one record at a time.
type encoder struct {
	st   state
	rec  Recording
	pred Record
}

func (e *encoder) append(r *Record) {
	i := e.rec.n
	e.rec.n++
	if pc := e.st.pc; pc >= 0 && pc < len(e.st.code) && e.st.code[pc].derive != deriveNone {
		t := &e.st.code[pc]
		e.st.rebuild(&e.pred, t, r.DstVal)
		if e.pred == *r {
			if t.derive == deriveLoad {
				e.rec.loads = binary.AppendVarint(e.rec.loads, r.DstVal)
			}
			e.st.advance(r)
			return
		}
	}
	e.rec.irregIdx = append(e.rec.irregIdx, i)
	e.rec.irregular = append(e.rec.irregular, *r)
	if r.PC >= len(e.st.code) && r.PC < maxCodeLen {
		e.st.code = append(e.st.code, make([]template, r.PC+1-len(e.st.code))...)
	}
	e.st.learn(r)
	e.st.advance(r)
}

// finish returns the recording, its slices trimmed to their length so that
// Bytes reports what the recording really holds.
func (e *encoder) finish() *Recording {
	rec := e.rec
	rec.loads = trim(rec.loads)
	rec.irregIdx = trim(rec.irregIdx)
	rec.irregular = trim(rec.irregular)
	rec.codeLen = len(e.st.code)
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

// MemorySource is a replay cursor over a Recording. It decodes each record
// into per-cursor scratch, so NextRef's pointer is read-only and valid only
// until the next call. Create one per replaying consumer with
// Recording.Source.
type MemorySource struct {
	rec     *Recording
	st      state
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

// NextRef is Next without the copy: it decodes the next record into the
// cursor's scratch and returns a pointer to it. The pointer is valid only
// until the next call, and the caller must never write through it.
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
		s.st.learn(r)
		s.st.advance(r)
		return r, true
	}
	t := &s.st.code[s.st.pc]
	var load int64
	if t.derive == deriveLoad {
		v, n := binary.Varint(s.rec.loads[s.li:])
		load = v
		s.li += n
	}
	s.st.rebuild(r, t, load)
	s.st.advance(r)
	return r, true
}

// Len returns the total number of records in the recording.
func (s *MemorySource) Len() int { return s.rec.n }
