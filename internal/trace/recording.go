package trace

import (
	"unsafe"

	"valuespec/internal/isa"
)

// Recording is a compact, immutable encoding of a record stream, built by
// Encode and replayed through any number of independent MemorySource
// cursors. It stores only what replay cannot predict.
//
// A replay cursor carries a little architectural state: the template of
// each static PC seen so far (instruction, source registers, and whether
// the op writes a register, accesses memory or jumps indirectly), a shadow
// register file, and the PC and Seq it expects next. From that state it
// predicts the next record: the instruction comes from the template at the
// expected PC, the source values from the shadow registers, the address
// from the first source plus the immediate, and the next PC from the taken
// bit. A record is regular when that prediction rebuilds it exactly, and
// the encoder checks this by running the cursor's own rebuild and comparing
// every field. Per record the recording keeps one flag byte (taken,
// irregular), plus the DstVal of each regular register writer and a
// verbatim copy of each irregular record. A misprediction therefore costs
// bytes, never correctness. On emulator traces only the first visit of
// each static PC is irregular: the shadow registers mirror the emulator's,
// and the emulator's code never changes.
type Recording struct {
	n         int
	flags     []byte  // one per record: flagTaken | flagIrregular
	vals      []int64 // DstVal of each regular register writer, in order
	irregular []Record
	codeLen   int // template table length a cursor needs
}

// Flag bits, one byte per record.
const (
	flagTaken     = 1 << 0
	flagIrregular = 1 << 1
)

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
	return int64(unsafe.Sizeof(*rec)) + int64(cap(rec.flags)) +
		int64(cap(rec.vals))*int64(unsafe.Sizeof(int64(0))) +
		int64(cap(rec.irregular))*int64(unsafe.Sizeof(Record{}))
}

// Source returns a fresh replay cursor over the recording. Cursors share
// the recording read-only, so concurrent simulations can each replay it
// through their own cursor.
func (rec *Recording) Source() *MemorySource {
	return &MemorySource{rec: rec, st: state{code: make([]template, rec.codeLen)}}
}

// template is what a cursor knows about one static PC.
type template struct {
	instr    isa.Instruction
	nsrc     int
	srcRegs  [2]isa.Reg
	writes   bool // writes a register: the record carries a DstVal
	mem      bool // accesses memory: Addr = SrcVals[0] + Imm
	indirect bool // a taken transfer goes to SrcVals[0], not Target
	valid    bool
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

// rebuild writes into r the record the state predicts at its expected PC,
// whose template is t: taken is the record's taken bit and dst its result,
// used only when t writes a register.
func (st *state) rebuild(r *Record, t *template, taken bool, dst int64) {
	r.Seq = st.seq
	r.PC = st.pc
	r.Instr = t.instr
	r.NSrc = t.nsrc
	r.SrcRegs = t.srcRegs
	r.SrcVals = [2]int64{st.regs[t.srcRegs[0]], st.regs[t.srcRegs[1]]}
	r.DstVal = 0
	if t.writes {
		r.DstVal = dst
	}
	r.Addr = 0
	if t.mem {
		r.Addr = r.SrcVals[0] + t.instr.Imm
	}
	r.Taken = taken
	r.NextPC = st.pc + 1
	if taken {
		r.NextPC = t.instr.Target
		if t.indirect {
			r.NextPC = int(r.SrcVals[0])
		}
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
		instr:    r.Instr,
		nsrc:     r.NSrc,
		srcRegs:  r.SrcRegs,
		writes:   isa.WritesReg(r.Instr.Op),
		mem:      isa.IsMem(r.Instr.Op),
		indirect: isa.IsIndirect(r.Instr.Op),
		valid:    true,
	}
}

// advance moves the state past r: its result lands in the shadow register
// file (R0 stays zero, as in the emulator) and the next record is expected
// at r.NextPC with the following Seq.
func (st *state) advance(r *Record, writes bool) {
	if writes && r.Instr.Dst != isa.R0 {
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
	e.rec.n++
	var f byte
	if r.Taken {
		f = flagTaken
	}
	if pc := e.st.pc; pc >= 0 && pc < len(e.st.code) && e.st.code[pc].valid {
		t := &e.st.code[pc]
		e.st.rebuild(&e.pred, t, r.Taken, r.DstVal)
		if e.pred == *r {
			e.rec.flags = append(e.rec.flags, f)
			if t.writes {
				e.rec.vals = append(e.rec.vals, r.DstVal)
			}
			e.st.advance(r, t.writes)
			return
		}
	}
	e.rec.flags = append(e.rec.flags, f|flagIrregular)
	e.rec.irregular = append(e.rec.irregular, *r)
	if r.PC >= len(e.st.code) && r.PC < maxCodeLen {
		e.st.code = append(e.st.code, make([]template, r.PC+1-len(e.st.code))...)
	}
	e.st.learn(r)
	e.st.advance(r, isa.WritesReg(r.Instr.Op))
}

// finish returns the recording, its slices trimmed to their length so that
// Bytes reports what the recording really holds.
func (e *encoder) finish() *Recording {
	rec := e.rec
	rec.flags = trim(rec.flags)
	rec.vals = trim(rec.vals)
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
	rec        *Recording
	st         state
	i, vi, iri int // next flag, value and irregular record
	out        Record
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
	if s.i >= s.rec.n {
		return nil, false
	}
	f := s.rec.flags[s.i]
	s.i++
	r := &s.out
	if f&flagIrregular != 0 {
		*r = s.rec.irregular[s.iri]
		s.iri++
		s.st.learn(r)
		s.st.advance(r, isa.WritesReg(r.Instr.Op))
		return r, true
	}
	t := &s.st.code[s.st.pc]
	var dst int64
	if t.writes {
		dst = s.rec.vals[s.vi]
		s.vi++
	}
	s.st.rebuild(r, t, f&flagTaken != 0, dst)
	s.st.advance(r, t.writes)
	return r, true
}

// Len returns the total number of records in the recording.
func (s *MemorySource) Len() int { return s.rec.n }
