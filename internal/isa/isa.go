// Package isa defines the instruction set of the simulated machine.
//
// The paper evaluates on SimpleScalar's PISA; shipping SPEC binaries is not
// possible, so valuespec defines a small 64-bit RISC instruction set that is
// rich enough to express the synthetic workloads in internal/bench and to
// exercise every microarchitectural path the paper studies: single-cycle
// integer operations, multi-cycle complex integer operations, loads and
// stores, conditional branches, and direct and indirect jumps.
//
// Instructions operate on 32 general-purpose 64-bit registers; register R0 is
// hard-wired to zero, as on MIPS. The program counter counts instructions
// (one instruction per word); the instruction-cache model converts it to a
// byte address assuming 4-byte encodings, matching the paper's 32B/8-instr
// cache blocks.
package isa

import "fmt"

// Reg names one of the 32 architected general-purpose registers.
// R0 always reads as zero and writes to it are discarded.
type Reg uint8

// NumRegs is the number of architected general-purpose registers.
const NumRegs = 32

// R0 is the hard-wired zero register.
const R0 Reg = 0

func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// Op identifies an operation.
type Op uint8

// The instruction set. Register-register ALU operations compute
// Dst = Src1 op Src2; immediate forms compute Dst = Src1 op Imm.
const (
	NOP Op = iota // no operation

	// Simple single-cycle integer ALU operations.
	ADD // Dst = Src1 + Src2
	SUB // Dst = Src1 - Src2
	AND // Dst = Src1 & Src2
	OR  // Dst = Src1 | Src2
	XOR // Dst = Src1 ^ Src2
	SHL // Dst = Src1 << (Src2 & 63)
	SHR // Dst = int64(uint64(Src1) >> (Src2 & 63))
	SRA // Dst = Src1 >> (Src2 & 63) (arithmetic)
	SLT // Dst = 1 if Src1 < Src2 else 0

	// Immediate forms (single cycle).
	ADDI // Dst = Src1 + Imm
	ANDI // Dst = Src1 & Imm
	ORI  // Dst = Src1 | Imm
	XORI // Dst = Src1 ^ Imm
	SHLI // Dst = Src1 << (Imm & 63)
	SHRI // Dst = int64(uint64(Src1) >> (Imm & 63))
	SLTI // Dst = 1 if Src1 < Imm else 0
	LDI  // Dst = Imm

	// Complex multi-cycle integer operations (the paper assigns complex
	// integer operations 2-24 cycles; see Latency).
	MUL // Dst = Src1 * Src2
	DIV // Dst = Src1 / Src2 (0 if Src2 == 0)
	REM // Dst = Src1 % Src2 (0 if Src2 == 0)

	// Memory operations. Addresses are in 8-byte words.
	LD // Dst = Mem[Src1 + Imm]
	ST // Mem[Src1 + Imm] = Src2

	// Control transfers. Target is a static instruction index.
	BEQ // if Src1 == Src2 goto Target
	BNE // if Src1 != Src2 goto Target
	BLT // if Src1 <  Src2 goto Target
	BGE // if Src1 >= Src2 goto Target
	JMP // goto Target
	JAL // Dst = PC+1; goto Target
	JR  // goto value in Src1 (indirect jump, used for returns)

	HALT // stop execution

	numOps // sentinel; must be last
)

var opNames = [...]string{
	NOP: "nop", ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	SHL: "shl", SHR: "shr", SRA: "sra", SLT: "slt",
	ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori", SHLI: "shli",
	SHRI: "shri", SLTI: "slti", LDI: "ldi",
	MUL: "mul", DIV: "div", REM: "rem",
	LD: "ld", ST: "st",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge",
	JMP: "jmp", JAL: "jal", JR: "jr",
	HALT: "halt",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o names a defined operation.
func (o Op) Valid() bool { return o < numOps }

// Instruction is one static instruction. The zero value is a NOP.
type Instruction struct {
	Op     Op
	Dst    Reg   // destination register, if WritesReg
	Src1   Reg   // first source register
	Src2   Reg   // second source register
	Imm    int64 // immediate operand for immediate/memory forms
	Target int   // static instruction index for direct control transfers
}

// Class is a coarse grouping of operations used by the selection logic and
// the statistics counters.
type Class uint8

// Instruction classes.
const (
	ClassALU     Class = iota // single-cycle integer
	ClassComplex              // multi-cycle integer
	ClassLoad
	ClassStore
	ClassBranch // conditional branch
	ClassJump   // unconditional direct or indirect transfer
	ClassNop    // NOP and HALT
)

func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassComplex:
		return "complex"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassJump:
		return "jump"
	case ClassNop:
		return "nop"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ClassOf returns the class of operation o.
func ClassOf(o Op) Class {
	switch o {
	case MUL, DIV, REM:
		return ClassComplex
	case LD:
		return ClassLoad
	case ST:
		return ClassStore
	case BEQ, BNE, BLT, BGE:
		return ClassBranch
	case JMP, JAL, JR:
		return ClassJump
	case NOP, HALT:
		return ClassNop
	}
	return ClassALU
}

// Latency returns the execution latency of o in cycles. The paper assigns
// one cycle to simple integer operations and 2-24 cycles to complex integer
// operations; memory-operation latency is modeled by the cache hierarchy on
// top of the 1-cycle address generation returned here.
func Latency(o Op) int {
	switch o {
	case MUL:
		return 3
	case DIV, REM:
		return 20
	}
	return 1
}

// WritesReg reports whether o produces a register result. Only
// register-writing instructions are candidates for value prediction.
func WritesReg(o Op) bool {
	switch o {
	case ST, BEQ, BNE, BLT, BGE, JMP, JR, NOP, HALT:
		return false
	}
	return true
}

// IsControl reports whether o redirects the program counter.
func IsControl(o Op) bool {
	c := ClassOf(o)
	return c == ClassBranch || c == ClassJump
}

// IsCondBranch reports whether o is a conditional branch (the only source of
// control misspeculation in the base processor: unconditional and direct
// jumps are always predicted correctly, per the paper).
func IsCondBranch(o Op) bool { return ClassOf(o) == ClassBranch }

// IsIndirect reports whether o is an indirect control transfer.
func IsIndirect(o Op) bool { return o == JR }

// IsMem reports whether o accesses data memory.
func IsMem(o Op) bool { return o == LD || o == ST }

// SrcRegs returns the source registers read by in. The second return value
// counts how many entries of the array are meaningful.
func (in Instruction) SrcRegs() ([2]Reg, int) {
	switch in.Op {
	case NOP, HALT, JMP, JAL, LDI:
		return [2]Reg{}, 0
	case ADDI, ANDI, ORI, XORI, SHLI, SHRI, SLTI, LD, JR:
		return [2]Reg{in.Src1}, 1
	default:
		return [2]Reg{in.Src1, in.Src2}, 2
	}
}

// String disassembles the instruction.
func (in Instruction) String() string {
	switch in.Op {
	case NOP, HALT:
		return in.Op.String()
	case LDI:
		return fmt.Sprintf("%s %s, %d", in.Op, in.Dst, in.Imm)
	case ADDI, ANDI, ORI, XORI, SHLI, SHRI, SLTI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Dst, in.Src1, in.Imm)
	case LD:
		return fmt.Sprintf("ld %s, %d(%s)", in.Dst, in.Imm, in.Src1)
	case ST:
		return fmt.Sprintf("st %s, %d(%s)", in.Src2, in.Imm, in.Src1)
	case BEQ, BNE, BLT, BGE:
		return fmt.Sprintf("%s %s, %s, @%d", in.Op, in.Src1, in.Src2, in.Target)
	case JMP:
		return fmt.Sprintf("jmp @%d", in.Target)
	case JAL:
		return fmt.Sprintf("jal %s, @%d", in.Dst, in.Target)
	case JR:
		return fmt.Sprintf("jr %s", in.Src1)
	default:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Dst, in.Src1, in.Src2)
	}
}

// Decoded is an instruction decoded once for execution.
type Decoded struct {
	Instruction
	NSrc    int    // how many entries of SrcRegs are meaningful
	SrcRegs [2]Reg // the registers it reads (SrcRegs), R0 past NSrc
	// DstReg is the register its result lands in: Dst, or Discard for an
	// op that writes no register or writes R0.
	DstReg Reg
}

// Discard is the register that takes the result of an op that writes
// none, or writes R0, so that R0 stays zero without a test: a register
// file of 256 words, indexed by any Reg, holds it. No instruction reads it.
const Discard Reg = NumRegs

// Decode returns every instruction of code decoded.
func Decode(code []Instruction) []Decoded {
	ds := make([]Decoded, len(code))
	for pc, in := range code {
		srcs, n := in.SrcRegs()
		dst := in.Dst
		if dst == R0 || !WritesReg(in.Op) {
			dst = Discard
		}
		ds[pc] = Decoded{Instruction: in, NSrc: n, SrcRegs: srcs, DstReg: dst}
	}
	return ds
}

// Addr returns the word address a load or store accesses when its first
// source register holds a.
func (in Instruction) Addr(a int64) int64 { return a + in.Imm }

// Execute executes in at pc on the values a and b of its source registers
// (SrcRegs; 0 past their count) and returns its result (the value a
// register-writing op produces; 0 for any other), the word address of a
// load or store, whether a control transfer is taken, and the next PC. A
// load's result is load, the word at its address (Addr), which the caller
// reads: Execute touches no memory and no register. An invalid op executes
// as a NOP; program.Validate rejects them.
//
// Execute is the one definition of the ISA's execution rules, a switch on
// the opcode: the emulator, the replay cursor, Eval and BranchTaken all
// execute through it.
func Execute(in *Instruction, pc int, a, b, load int64) (dst, addr int64, taken bool, next int) {
	next = pc + 1
	switch in.Op {
	case ADD:
		dst = a + b
	case SUB:
		dst = a - b
	case AND:
		dst = a & b
	case OR:
		dst = a | b
	case XOR:
		dst = a ^ b
	case SHL:
		dst = a << (uint64(b) & 63)
	case SHR:
		dst = int64(uint64(a) >> (uint64(b) & 63))
	case SRA:
		dst = a >> (uint64(b) & 63)
	case SLT:
		if a < b {
			dst = 1
		}
	case ADDI:
		dst = a + in.Imm
	case ANDI:
		dst = a & in.Imm
	case ORI:
		dst = a | in.Imm
	case XORI:
		dst = a ^ in.Imm
	case SHLI:
		dst = a << (uint64(in.Imm) & 63)
	case SHRI:
		dst = int64(uint64(a) >> (uint64(in.Imm) & 63))
	case SLTI:
		if a < in.Imm {
			dst = 1
		}
	case LDI:
		dst = in.Imm
	case MUL:
		dst = a * b
	case DIV:
		if b != 0 {
			dst = a / b
		}
	case REM:
		if b != 0 {
			dst = a % b
		}
	case LD:
		dst, addr = load, in.Addr(a)
	case ST:
		addr = in.Addr(a)
	case BEQ:
		if a == b {
			taken, next = true, in.Target
		}
	case BNE:
		if a != b {
			taken, next = true, in.Target
		}
	case BLT:
		if a < b {
			taken, next = true, in.Target
		}
	case BGE:
		if a >= b {
			taken, next = true, in.Target
		}
	case JMP:
		taken, next = true, in.Target
	case JAL:
		dst, taken, next = int64(pc+1), true, in.Target
	case JR:
		taken, next = true, int(a)
	}
	return dst, addr, taken, next
}

// Eval computes the result of a register-writing, non-memory, non-control
// instruction from its source operand values, by Execute. Eval panics if
// the operation does not have pure ALU semantics.
func Eval(o Op, a, b, imm int64) int64 {
	if c := ClassOf(o); !o.Valid() || c != ClassALU && c != ClassComplex {
		panic(fmt.Sprintf("isa.Eval: %v has no ALU semantics", o))
	}
	dst, _, _, _ := Execute(&Instruction{Op: o, Imm: imm}, 0, a, b, 0)
	return dst
}

// BranchTaken evaluates the direction of a conditional branch from its source
// operand values, by Execute. It panics if o is not a conditional branch.
func BranchTaken(o Op, a, b int64) bool {
	if !IsCondBranch(o) {
		panic(fmt.Sprintf("isa.BranchTaken: %v is not a conditional branch", o))
	}
	_, _, taken, _ := Execute(&Instruction{Op: o}, 0, a, b, 0)
	return taken
}
