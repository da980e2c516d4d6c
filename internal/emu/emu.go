// Package emu implements the functional emulator for the valuespec ISA.
//
// The emulator executes a program architecturally (no timing) and emits one
// trace.Record per dynamic instruction, or records the run (Record) for
// replay. It is the substitute for running SPEC binaries under
// SimpleScalar's functional front end. Each instruction executes by
// isa.Execute, the one copy of the ISA's rules, on a trace.Exec, as in the
// replay cursor; the emulator adds data memory, HALT, the instruction
// budget and the PC range check.
package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"valuespec/internal/isa"
	"valuespec/internal/program"
	"valuespec/internal/trace"
)

// ErrHalted is returned by Step after the program has executed HALT or
// exhausted its instruction budget.
var ErrHalted = errors.New("emu: machine halted")

// Machine is the architectural state of one running program.
type Machine struct {
	x      trace.Exec
	mem    memImage
	out    trace.Record // the record NextRef hands over
	budget int64        // instruction limit, <0 means unlimited
	halted bool
	err    error // the fault that halted the machine
}

// Option configures a Machine.
type Option func(*Machine)

// WithBudget limits execution to at most n dynamic instructions; the machine
// halts cleanly when the budget is exhausted. A non-positive n means
// unlimited.
func WithBudget(n int64) Option {
	return func(m *Machine) {
		if n > 0 {
			m.budget = n
		}
	}
}

// New creates a machine ready to run p from its entry point, with data
// memory initialized from the program image.
func New(p *program.Program, opts ...Option) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{x: trace.Exec{Code: isa.Decode(p.Code), PC: p.Entry}, budget: -1}
	for addr, val := range p.Data {
		m.mem.write(addr, val)
	}
	for _, o := range opts {
		o(m)
	}
	return m, nil
}

// Halted reports whether the machine has stopped.
func (m *Machine) Halted() bool { return m.halted }

// PC returns the current program counter (static instruction index).
func (m *Machine) PC() int { return m.x.PC }

// Err returns the fault that halted the machine, or nil while it runs and
// after HALT or an exhausted budget. Next and NextRef end the stream at a
// fault as at a halt, so their consumers check Err when it ends.
func (m *Machine) Err() error { return m.err }

// Executed returns the number of dynamic instructions executed so far.
func (m *Machine) Executed() int64 { return m.x.Seq }

// Reg returns the architectural value of register r.
func (m *Machine) Reg(r isa.Reg) int64 { return m.x.Regs[r] }

// Mem returns the architectural value of data-memory word addr.
func (m *Machine) Mem(addr int64) int64 { return m.mem.read(addr) }

// Step executes one dynamic instruction and returns its record.
// It returns ErrHalted once the program has stopped.
func (m *Machine) Step() (trace.Record, error) {
	if err := m.step(); err != nil {
		return trace.Record{}, err
	}
	return m.out, nil
}

// step executes one dynamic instruction into m.out.
func (m *Machine) step() error {
	if m.halted {
		return ErrHalted
	}
	return m.exec(m.x.Seq+1, &m.out, nil)
}

// exec executes instructions until x.Seq reaches end or the machine halts:
// at HALT, with the budget spent, or at a PC outside the code, a fault. It
// writes each instruction's record into r and appends each load's value
// to log, unless they are nil.
func (m *Machine) exec(end int64, r *trace.Record, log *[]byte) error {
	x := &m.x
	if m.budget > 0 {
		end = min(end, m.budget)
	}
	for x.Seq < end {
		pc := x.PC
		if uint(pc) >= uint(len(x.Code)) {
			m.halted = true
			m.err = fmt.Errorf("emu: pc %d out of range [0,%d)", pc, len(x.Code))
			return m.err
		}
		d := &x.Code[pc]
		a, b := x.Regs[d.SrcRegs[0]], x.Regs[d.SrcRegs[1]]
		var load int64
		switch d.Op {
		case isa.LD:
			load = m.mem.read(d.Addr(a))
			if log != nil {
				*log = binary.AppendVarint(*log, load)
			}
		case isa.ST:
			m.mem.write(d.Addr(a), b)
		case isa.HALT:
			m.halted, end = true, x.Seq+1
		}
		dst, addr, taken, next := isa.Execute(&d.Instruction, pc, a, b, load)
		x.Retire(r, d, a, b, dst, addr, taken, next)
	}
	if x.Seq == m.budget {
		m.halted = true
	}
	return nil
}

// Record runs p to its end on a machine New(p, opts...) builds and returns
// the recording of the run: the program, the number of records it
// executed and the value each load returned, written as the machine runs.
// It builds no trace.Record. A fault fails the recording.
func Record(p *program.Program, opts ...Option) (*trace.Recording, error) {
	m, err := New(p, opts...)
	if err != nil {
		return nil, err
	}
	var loads []byte
	if err := m.exec(math.MaxInt64, nil, &loads); err != nil {
		return nil, err
	}
	return trace.NewRecording(m.x.Code, p.Entry, int(m.x.Seq), loads), nil
}

// Next implements trace.Source: it steps the machine, reporting false at
// halt or on an execution fault (see Err).
func (m *Machine) Next() (trace.Record, bool) {
	if m.step() != nil {
		return trace.Record{}, false
	}
	return m.out, true
}

// NextRef implements trace.RefSource: it steps the machine into its own
// scratch record and returns a pointer to it, reporting false at halt or on
// an execution fault (see Err).
func (m *Machine) NextRef() (*trace.Record, bool) {
	if m.step() != nil {
		return nil, false
	}
	return &m.out, true
}

// Run executes until halt or until limit instructions have run (limit <= 0
// means no limit beyond the machine's budget) and returns the number of
// instructions executed by this call.
func (m *Machine) Run(limit int64) (int64, error) {
	if m.halted {
		return 0, nil
	}
	start, end := m.x.Seq, int64(math.MaxInt64)
	if limit > 0 && limit < end-start {
		end = start + limit
	}
	err := m.exec(end, nil, nil)
	return m.x.Seq - start, err
}

// pageBits sizes memory pages at 4096 words (32 KiB); workloads touch a few
// hundred KiB so the page map stays tiny while avoiding per-word map lookups.
const pageBits = 12

type page [1 << pageBits]int64

// memImage is a sparse word-addressed memory. Reads of untouched words
// return zero, matching a zero-initialized address space.
type memImage struct {
	pages map[int64]*page
	// last-page cache: emulated access streams are highly local.
	lastIdx  int64
	lastPage *page
}

func (mi *memImage) lookup(addr int64, create bool) *page {
	idx := addr >> pageBits
	if mi.lastPage != nil && mi.lastIdx == idx {
		return mi.lastPage
	}
	p := mi.pages[idx]
	if p == nil {
		if !create {
			return nil
		}
		if mi.pages == nil {
			mi.pages = make(map[int64]*page)
		}
		p = new(page)
		mi.pages[idx] = p
	}
	mi.lastIdx, mi.lastPage = idx, p
	return p
}

func (mi *memImage) read(addr int64) int64 {
	p := mi.lookup(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(1<<pageBits-1)]
}

func (mi *memImage) write(addr, val int64) {
	mi.lookup(addr, true)[addr&(1<<pageBits-1)] = val
}
