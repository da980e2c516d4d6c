package emu_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"valuespec/internal/bench"
	"valuespec/internal/emu"
	"valuespec/internal/isa"
	"valuespec/internal/program"
	"valuespec/internal/trace"
)

// refMachine is the reference emulator: a class switch over each
// instruction, written against the ISA's definitions and sharing no
// execution rule with trace.Exec, which the emulator and the replay cursor
// both run on. A replay checked only against the emulator cannot catch a
// wrong rule; this reference can. Data memory is a plain map.
type refMachine struct {
	code   []isa.Instruction
	regs   [isa.NumRegs]int64
	mem    map[int64]int64
	pc     int
	seq    int64
	budget int64 // >0 limits the instructions executed
	halted bool
}

func newRef(p *program.Program, budget int64) *refMachine {
	m := &refMachine{code: p.Code, mem: make(map[int64]int64), pc: p.Entry, budget: budget}
	for addr, val := range p.Data {
		m.mem[addr] = val
	}
	return m
}

// Step executes one dynamic instruction and returns its record, with the
// emulator's errors: emu.ErrHalted once stopped, and a PC range fault.
func (m *refMachine) Step() (trace.Record, error) {
	if m.halted {
		return trace.Record{}, emu.ErrHalted
	}
	if m.pc < 0 || m.pc >= len(m.code) {
		m.halted = true
		return trace.Record{}, fmt.Errorf("emu: pc %d out of range [0,%d)", m.pc, len(m.code))
	}
	in := m.code[m.pc]
	rec := trace.Record{Seq: m.seq, PC: m.pc, Instr: in, NextPC: m.pc + 1}
	srcs, n := in.SrcRegs()
	rec.SrcRegs, rec.NSrc = srcs, n
	for i := 0; i < n; i++ {
		rec.SrcVals[i] = m.regs[srcs[i]]
	}

	switch isa.ClassOf(in.Op) {
	case isa.ClassALU, isa.ClassComplex:
		rec.DstVal = isa.Eval(in.Op, rec.SrcVals[0], rec.SrcVals[1], in.Imm)
		m.setReg(in.Dst, rec.DstVal)

	case isa.ClassLoad:
		rec.Addr = rec.SrcVals[0] + in.Imm
		rec.DstVal = m.mem[rec.Addr]
		m.setReg(in.Dst, rec.DstVal)

	case isa.ClassStore:
		rec.Addr = rec.SrcVals[0] + in.Imm
		m.mem[rec.Addr] = rec.SrcVals[1]

	case isa.ClassBranch:
		rec.Taken = isa.BranchTaken(in.Op, rec.SrcVals[0], rec.SrcVals[1])
		if rec.Taken {
			rec.NextPC = in.Target
		}

	case isa.ClassJump:
		rec.Taken = true
		switch in.Op {
		case isa.JMP:
			rec.NextPC = in.Target
		case isa.JAL:
			rec.DstVal = int64(m.pc + 1)
			m.setReg(in.Dst, rec.DstVal)
			rec.NextPC = in.Target
		case isa.JR:
			rec.NextPC = int(rec.SrcVals[0])
		}

	case isa.ClassNop:
		if in.Op == isa.HALT {
			m.halted = true
		}
	}

	m.pc = rec.NextPC
	m.seq++
	if m.budget > 0 && m.seq >= m.budget {
		m.halted = true
	}
	return rec, nil
}

func (m *refMachine) setReg(r isa.Reg, v int64) {
	if r != isa.R0 {
		m.regs[r] = v
	}
}

// lockstep runs p on the emulator and on the reference side by side, both
// under budget (<= 0 for none), until the reference reports an error. Every
// record must match field by field as it is produced, every error must
// match, and so must the final architectural state. Then it records p
// (emu.Record) and replays the recording against a fresh reference
// (replayMatches). It returns the reference's final error.
func lockstep(t testing.TB, p *program.Program, budget int64) error {
	t.Helper()
	m, err := emu.New(p, emu.WithBudget(budget))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ref := newRef(p, budget)
	var werr error
	for werr == nil {
		var want trace.Record
		want, werr = ref.Step()
		got, gerr := m.Step()
		if got != want {
			t.Fatalf("record %d differs:%s", want.Seq, fieldDiffs(got, want))
		}
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() ||
			errors.Is(gerr, emu.ErrHalted) != errors.Is(werr, emu.ErrHalted) {
			t.Fatalf("after %d records: error %v, reference %v", ref.seq, gerr, werr)
		}
	}
	if m.Halted() != ref.halted || m.Executed() != ref.seq || m.PC() != ref.pc {
		t.Fatalf("final state: halted %t, executed %d, pc %d; reference %t, %d, %d",
			m.Halted(), m.Executed(), m.PC(), ref.halted, ref.seq, ref.pc)
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if m.Reg(r) != ref.regs[r] {
			t.Fatalf("final %s = %d, reference %d", r, m.Reg(r), ref.regs[r])
		}
	}
	for addr, val := range ref.mem {
		if m.Mem(addr) != val {
			t.Fatalf("final mem[%d] = %d, reference %d", addr, m.Mem(addr), val)
		}
	}
	if (m.Err() == nil) != errors.Is(werr, emu.ErrHalted) {
		t.Fatalf("Err() = %v after the reference's %v", m.Err(), werr)
	}
	rec, rerr := emu.Record(p, emu.WithBudget(budget))
	if !errors.Is(werr, emu.ErrHalted) {
		if rerr == nil || rerr.Error() != werr.Error() {
			t.Fatalf("recording failed with %v, reference %v", rerr, werr)
		}
		return werr
	}
	if rerr != nil {
		t.Fatalf("recording: %v", rerr)
	}
	replayMatches(t, rec, newRef(p, budget))
	return werr
}

// replayMatches replays rec against ref, which must run the same program
// to a clean halt: each replayed record must match ref's field by field,
// the replay must end where ref halts, and it must read the load log
// exactly.
func replayMatches(t testing.TB, rec *trace.Recording, ref *refMachine) {
	t.Helper()
	src := rec.Source()
	for {
		want, werr := ref.Step()
		got, ok := src.NextRef()
		if werr != nil {
			if ok {
				t.Fatalf("replay runs past the reference's %d records: %+v", ref.seq, *got)
			}
			break
		}
		if !ok {
			t.Fatalf("replay ended after %d records, before the reference: %v", want.Seq, src.Err())
		}
		if *got != want {
			t.Fatalf("replayed record %d differs:%s", want.Seq, fieldDiffs(*got, want))
		}
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
}

// fieldDiffs names each field on which got and want differ.
func fieldDiffs(got, want trace.Record) string {
	var b strings.Builder
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if gf, wf := g.Field(i).Interface(), w.Field(i).Interface(); gf != wf {
			fmt.Fprintf(&b, "\n\t%s: got %v, reference %v", g.Type().Field(i).Name, gf, wf)
		}
	}
	return b.String()
}

// TestEmulatorMatchesReference runs every kernel at scale 1 and at its
// default scale through the emulator, its recording's replay and the
// reference, then the budget and PC range paths.
func TestEmulatorMatchesReference(t *testing.T) {
	for _, w := range bench.All() {
		for _, scale := range []int{1, w.DefaultScale} {
			t.Run(fmt.Sprintf("%s@%d", w.Name, scale), func(t *testing.T) {
				if err := lockstep(t, w.Build(scale), 0); !errors.Is(err, emu.ErrHalted) {
					t.Errorf("ended with %v, want a halt", err)
				}
			})
		}
	}
	spin := program.MustAssemble("spin: jmp spin")
	for _, tc := range []struct {
		name   string
		p      *program.Program
		budget int64
		halted bool // ends in a clean halt rather than a fault
	}{
		{"kernel cut by its budget", bench.All()[0].Build(1), 1000, true},
		{"spin loop cut by its budget", spin, 10, true},
		{"jump past the code", program.MustAssemble("ldi r1, 99\njr r1"), 0, false},
		{"jump below the code", program.MustAssemble("ldi r1, -1\njr r1"), 0, false},
		{"run off the end", program.MustAssemble("nop"), 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := lockstep(t, tc.p, tc.budget); errors.Is(err, emu.ErrHalted) != tc.halted {
				t.Errorf("ended with %v, want halted %t", err, tc.halted)
			}
		})
	}
}

// FuzzEmulatorMatchesReference decodes each input into a small program that
// passes program.Validate and runs it on the emulator, its recording's
// replay and the reference for at most 4,096 instructions: records and
// errors must be identical.
func FuzzEmulatorMatchesReference(f *testing.F) {
	for _, src := range []string{
		// One program per instruction class.
		"ldi r1, 6\naddi r2, r1, -3\nsub r3, r1, r2\nslt r4, r2, r1\nsra r5, r2, r1\nhalt",
		"ldi r1, 7\nmul r3, r1, r1\ndiv r4, r3, r0\nrem r5, r3, r1\nhalt",
		".word 5 42\nldi r1, 5\nld r2, (r1)\nld r3, 1(r1)\nhalt",
		"ldi r1, 9\nldi r2, -4\nst r2, 3(r1)\nhalt",
		"ldi r1, 3\nloop: addi r1, r1, -1\nbne r1, r0, loop\nblt r1, r0, loop\nbge r1, r0, done\nnop\ndone: halt",
		"jmp over\nnop\nover: halt",
		"nop\nnop\nhalt",
		// A call and its return.
		"ldi r1, 10\njal r31, double\njal r31, double\nhalt\ndouble: add r1, r1, r1\njr r31",
		// A store, then a load of the stored word.
		"ldi r1, 20\nldi r2, 77\nst r2, (r1)\nld r3, (r1)\nhalt",
		// A fault and an exhausted budget.
		"ldi r1, 99\njr r1",
		"spin: jmp spin",
	} {
		f.Add(fuzzInput(program.MustAssemble(src)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		if p == nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("decoded an invalid program: %v", err)
		}
		lockstep(t, p, 4096)
	})
}

// fuzzProgram decodes a fuzz input: a count of data words (0-4) and their
// (address, value) bytes, then up to 64 instructions of six bytes each (op,
// dst, src1, src2, imm, target), each field reduced into the ISA. It
// returns nil when no whole instruction remains.
func fuzzProgram(data []byte) *program.Program {
	if len(data) == 0 {
		return nil
	}
	nd := int(data[0] % 5)
	data = data[1:]
	p := &program.Program{Name: "fuzz", Data: make(map[int64]int64)}
	for ; nd > 0 && len(data) >= 2; nd-- {
		p.Data[int64(int8(data[0]))] = int64(int8(data[1]))
		data = data[2:]
	}
	n := min(len(data)/6, 64)
	if n == 0 {
		return nil
	}
	for i := 0; i < n; i++ {
		b := data[6*i : 6*i+6]
		p.Code = append(p.Code, isa.Instruction{
			Op:     isa.Op(b[0] % byte(isa.HALT+1)),
			Dst:    isa.Reg(b[1] % isa.NumRegs),
			Src1:   isa.Reg(b[2] % isa.NumRegs),
			Src2:   isa.Reg(b[3] % isa.NumRegs),
			Imm:    int64(int8(b[4])),
			Target: int(b[5]) % n,
		})
	}
	return p
}

// fuzzInput encodes p in fuzzProgram's format; its data addresses and
// values and its immediates must fit in a signed byte.
func fuzzInput(p *program.Program) []byte {
	b := []byte{byte(len(p.Data))}
	for addr, val := range p.Data {
		b = append(b, byte(int8(addr)), byte(int8(val)))
	}
	for _, in := range p.Code {
		b = append(b, byte(in.Op), byte(in.Dst), byte(in.Src1), byte(in.Src2), byte(int8(in.Imm)), byte(in.Target))
	}
	return b
}
