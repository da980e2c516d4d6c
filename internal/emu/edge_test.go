package emu_test

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"valuespec/internal/emu"
	"valuespec/internal/isa"
	"valuespec/internal/program"
)

// TestEveryOpAtEdgeOperands runs every ALU, complex and branch op on each
// pair of edge operands through lockstep: the streaming Machine and the
// replay of its emu.Record recording, both against the reference. The
// operands are 0, ±1, the int64 extremes and the shift counts 0, 63, 64
// and -1, so DIV and REM meet a zero divisor and MinInt64 / -1. The first
// operand sits in r1, the second in r2, or in the immediate of an
// immediate form. Each program is built as instructions, not assembled.
// The reference computes results by isa.Eval and isa.BranchTaken, which
// are the emulator's own isa.Execute, so the result in r3 is also checked
// against edgeWant, the ISA's definitions in Go's operators.
func TestEveryOpAtEdgeOperands(t *testing.T) {
	vals := []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 63, 64}
	for op := isa.Op(0); op.Valid(); op++ {
		c := isa.ClassOf(op)
		if c != isa.ClassALU && c != isa.ClassComplex && c != isa.ClassBranch {
			continue
		}
		for _, a := range vals {
			for _, b := range vals {
				p := edgeProgram(op, a, b)
				if err := p.Validate(); err != nil {
					t.Fatalf("%v %d, %d: %v", op, a, b, err)
				}
				t.Run(fmt.Sprintf("%v/%d/%d", op, a, b), func(t *testing.T) {
					if err := lockstep(t, p, 0); !errors.Is(err, emu.ErrHalted) {
						t.Errorf("ended with %v, want a halt", err)
					}
					m, err := emu.New(p)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := m.Run(0); err != nil {
						t.Fatal(err)
					}
					if got, want := m.Reg(3), edgeWant(op, a, b); got != want {
						t.Errorf("r3 = %d, want %d", got, want)
					}
				})
			}
		}
	}
}

// edgeWant is what edgeProgram leaves in r3, from the ISA's definitions
// (the comments on isa's opcodes) written in Go's operators.
func edgeWant(op isa.Op, a, b int64) int64 {
	flag := func(c bool) int64 {
		if c {
			return 1
		}
		return 0
	}
	branch := func(taken bool) int64 { return 100 + 100*flag(taken) }
	switch op {
	case isa.ADD, isa.ADDI:
		return a + b
	case isa.SUB:
		return a - b
	case isa.AND, isa.ANDI:
		return a & b
	case isa.OR, isa.ORI:
		return a | b
	case isa.XOR, isa.XORI:
		return a ^ b
	case isa.SHL, isa.SHLI:
		return a << (uint64(b) & 63)
	case isa.SHR, isa.SHRI:
		return int64(uint64(a) >> (uint64(b) & 63))
	case isa.SRA:
		return a >> (uint64(b) & 63)
	case isa.SLT, isa.SLTI:
		return flag(a < b)
	case isa.LDI:
		return b
	case isa.MUL:
		return a * b
	case isa.DIV:
		if b == 0 {
			return 0
		}
		return a / b
	case isa.REM:
		if b == 0 {
			return 0
		}
		return a % b
	case isa.BEQ:
		return branch(a == b)
	case isa.BNE:
		return branch(a != b)
	case isa.BLT:
		return branch(a < b)
	case isa.BGE:
		return branch(a >= b)
	}
	panic(fmt.Sprintf("edgeWant: %v is not an ALU, complex or branch op", op))
}

// edgeProgram loads a into r1 and b into r2, then executes op on them into
// r3 (a branch sets r3 to 100 on its fall-through path and to 200 on its
// taken path) and halts.
func edgeProgram(op isa.Op, a, b int64) *program.Program {
	in := isa.Instruction{Op: op, Dst: 3, Src1: 1, Src2: 2}
	if srcs, n := in.SrcRegs(); n < 2 || srcs[1] != 2 {
		in.Imm = b // an immediate form, or LDI
	}
	code := []isa.Instruction{
		{Op: isa.LDI, Dst: 1, Imm: a},
		{Op: isa.LDI, Dst: 2, Imm: b},
		in,
		{Op: isa.HALT},
	}
	if isa.IsCondBranch(op) {
		code[2].Dst, code[2].Target = 0, 5
		code = append(code[:3],
			isa.Instruction{Op: isa.LDI, Dst: 3, Imm: 100},
			isa.Instruction{Op: isa.HALT},
			isa.Instruction{Op: isa.LDI, Dst: 3, Imm: 200},
			isa.Instruction{Op: isa.HALT})
	}
	return &program.Program{Name: "edge", Code: code}
}
