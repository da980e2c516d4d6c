// Package trace defines the dynamic-instruction record exchanged between the
// functional emulator and the timing simulator, the executor state (Exec)
// that both the emulator and the replay cursor run, the compact Recording
// that sweeps replay, the VSTR file format, and small utilities for
// buffering and inspecting instruction streams.
//
// The timing simulator is execute-driven on the architecturally correct path:
// the emulator supplies each dynamic instruction with its correct operand
// values, result, memory address and control outcome, and the timing model
// decides *when* everything happens, including when speculatively executed
// instructions would have computed wrong values and must re-execute.
package trace

import (
	"fmt"

	"valuespec/internal/isa"
)

// Record describes one dynamic instruction on the correct path.
type Record struct {
	Seq   int64 // dynamic sequence number, starting at 0
	PC    int   // static instruction index
	Instr isa.Instruction

	NSrc    int // number of meaningful entries in SrcVals
	SrcRegs [2]isa.Reg
	SrcVals [2]int64 // architecturally correct source operand values

	DstVal int64 // architecturally correct result, if the instruction writes a register
	Addr   int64 // memory word address for loads and stores

	Taken  bool // for control transfers: was the transfer taken?
	NextPC int  // architecturally correct next PC
}

// WritesReg reports whether the record produces a register value.
func (r *Record) WritesReg() bool { return isa.WritesReg(r.Instr.Op) }

func (r *Record) String() string {
	return fmt.Sprintf("#%d pc=%d %s", r.Seq, r.PC, r.Instr)
}

// Source produces a stream of dynamic instructions. Next reports false when
// the program has halted. Implementations are not safe for concurrent use.
type Source interface {
	Next() (Record, bool)
}

// RefSource is a Source that can also hand each record over in place:
// NextRef returns a pointer to the next record in the source's own scratch.
// The pointer is read-only and valid only until the next call, so a
// consumer that copies or digests each record at once skips Next's copy.
type RefSource interface {
	Source
	NextRef() (*Record, bool)
}

// SliceSource replays a pre-recorded slice of records; used heavily in tests
// to drive the timing simulator with hand-constructed streams. It is a
// RefSource: NextRef hands over each record in place.
type SliceSource struct {
	Records []Record
	pos     int
}

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	r, ok := s.NextRef()
	if !ok {
		return Record{}, false
	}
	return *r, true
}

// NextRef implements RefSource: it returns a pointer into Records.
func (s *SliceSource) NextRef() (*Record, bool) {
	if s.pos >= len(s.Records) {
		return nil, false
	}
	s.pos++
	return &s.Records[s.pos-1], true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Collect drains up to max records from src (all records if max <= 0).
func Collect(src Source, max int) []Record {
	var out []Record
	for max <= 0 || len(out) < max {
		r, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out
}

// Limit wraps src, ending the stream after at most n records.
func Limit(src Source, n int64) Source { return &limited{src: src, left: n} }

type limited struct {
	src  Source
	left int64
}

func (l *limited) Next() (Record, bool) {
	if l.left <= 0 {
		return Record{}, false
	}
	l.left--
	return l.src.Next()
}

// Mix summarizes the instruction-class composition of a stream; used by
// workload tests to check that each synthetic benchmark has a plausible mix.
type Mix struct {
	Total    int64
	ByClass  [7]int64 // indexed by isa.Class
	RegWrite int64    // instructions producing a register value
}

// Observe accumulates one record.
func (m *Mix) Observe(r *Record) {
	m.Total++
	m.ByClass[isa.ClassOf(r.Instr.Op)]++
	if r.WritesReg() {
		m.RegWrite++
	}
}

// Frac returns the fraction of instructions in class c, in [0,1].
func (m *Mix) Frac(c isa.Class) float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.ByClass[c]) / float64(m.Total)
}

// RegWriteFrac returns the fraction of instructions that write a register —
// the paper's "Instructions Predicted (%)" column in Table 1, since every
// register-writing instruction is a value-prediction candidate.
func (m *Mix) RegWriteFrac() float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.RegWrite) / float64(m.Total)
}
