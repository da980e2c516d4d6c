// Package emu implements the functional emulator for the valuespec ISA.
//
// The emulator executes a program architecturally (no timing) and emits one
// trace.Record per dynamic instruction. It is the substitute for running
// SPEC binaries under SimpleScalar's functional front end. Instructions
// execute on a trace.Exec, the replay cursor's own rules over templates
// decoded once per program; the emulator adds only data memory, HALT, the
// instruction budget and the PC range check.
package emu

import (
	"errors"
	"fmt"

	"valuespec/internal/isa"
	"valuespec/internal/program"
	"valuespec/internal/trace"
)

// ErrHalted is returned by Step after the program has executed HALT or
// exhausted its instruction budget.
var ErrHalted = errors.New("emu: machine halted")

// Machine is the architectural state of one running program.
type Machine struct {
	prog   *program.Program
	x      trace.Exec
	mem    memImage
	out    trace.Record // the record NextRef hands over
	budget int64        // instruction limit, <0 means unlimited
	halted bool
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
	m := &Machine{prog: p, x: trace.NewExec(p.Code, p.Entry), budget: -1}
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
	if pc := m.x.PC; pc < 0 || pc >= len(m.prog.Code) {
		m.halted = true
		return fmt.Errorf("emu: pc %d out of range [0,%d)", pc, len(m.prog.Code))
	}
	r := &m.out
	m.x.Rebuild(r)
	switch r.Instr.Op {
	case isa.LD:
		r.DstVal = m.mem.read(r.Addr)
	case isa.ST:
		m.mem.write(r.Addr, r.SrcVals[1])
	case isa.HALT:
		m.halted = true
	}
	m.x.Advance(r)
	if m.budget > 0 && m.x.Seq >= m.budget {
		m.halted = true
	}
	return nil
}

// Next implements trace.Source: it steps the machine, reporting false at
// halt or on an execution fault.
func (m *Machine) Next() (trace.Record, bool) {
	if m.step() != nil {
		return trace.Record{}, false
	}
	return m.out, true
}

// NextRef implements trace.RefSource: it steps the machine into its own
// scratch record and returns a pointer to it, reporting false at halt or on
// an execution fault.
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
	var n int64
	for !m.halted {
		if limit > 0 && n >= limit {
			break
		}
		if err := m.step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
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
