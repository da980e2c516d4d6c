package program

import (
	"fmt"
	"strconv"
	"strings"

	"valuespec/internal/isa"
)

// Assemble parses assembly text into a Program. The syntax mirrors the
// disassembly produced by Program.Disassemble and isa.Instruction.String:
//
//	; comments run to end of line (# also accepted)
//	.name compress          ; optional program name
//	.word  ADDR VALUE       ; initialize one data word
//	.words ADDR V0 V1 ...   ; initialize consecutive data words
//	label:                  ; define a label
//	    ldi  r1, 42
//	    add  r2, r1, r1
//	    addi r2, r2, -1
//	    ld   r3, 8(r1)      ; load from word address r1+8
//	    st   r3, 0(r2)      ; store to word address r2+0
//	    beq  r1, r2, label
//	    jmp  label
//	    jal  r31, label
//	    jr   r31
//	    halt
//
// Operands may be separated by commas and/or spaces. Branch and jump targets
// must be labels; forward references are allowed.
func Assemble(src string) (*Program, error) {
	b := NewBuilder("asm")
	for lineno, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, ";#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := asmLine(b, line); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno+1, err)
		}
	}
	return b.Build()
}

// MustAssemble is Assemble that panics on error.
func MustAssemble(src string) *Program {
	p, err := Assemble(src)
	if err != nil {
		panic(err)
	}
	return p
}

func asmLine(b *Builder, line string) error {
	// A leading "label:" may stand alone or precede an instruction.
	if colon := strings.Index(line, ":"); colon >= 0 && !strings.ContainsAny(line[:colon], " \t,") {
		label := strings.TrimSpace(line[:colon])
		if label == "" {
			return fmt.Errorf("empty label")
		}
		b.Label(label)
		line = strings.TrimSpace(line[colon+1:])
		if line == "" {
			return nil
		}
	}
	fields := strings.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '\t' || r == ',' })
	if len(fields) == 0 {
		return fmt.Errorf("separators without a mnemonic: %q", line)
	}
	mnemonic, args := strings.ToLower(fields[0]), fields[1:]

	switch mnemonic {
	case ".name":
		if len(args) != 1 {
			return fmt.Errorf(".name wants 1 argument")
		}
		b.name = args[0]
		return nil
	case ".word":
		if len(args) != 2 {
			return fmt.Errorf(".word wants ADDR VALUE")
		}
		addr, err := asmInt(args[0])
		if err != nil {
			return err
		}
		val, err := asmInt(args[1])
		if err != nil {
			return err
		}
		b.InitWord(addr, val)
		return nil
	case ".words":
		if len(args) < 2 {
			return fmt.Errorf(".words wants ADDR V0 [V1 ...]")
		}
		addr, err := asmInt(args[0])
		if err != nil {
			return err
		}
		for i, s := range args[1:] {
			v, err := asmInt(s)
			if err != nil {
				return err
			}
			b.InitWord(addr+int64(i), v)
		}
		return nil
	}

	op, ok := opByName(mnemonic)
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	return asmInstr(b, op, args)
}

func opByName(name string) (isa.Op, bool) {
	for o := isa.NOP; ; o++ {
		if !o.Valid() {
			return 0, false
		}
		if o.String() == name {
			return o, true
		}
	}
}

func asmInstr(b *Builder, op isa.Op, args []string) error {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s wants %d operands, got %d", op, n, len(args))
		}
		return nil
	}
	switch isa.ClassOf(op) {
	case isa.ClassNop:
		if err := need(0); err != nil {
			return err
		}
		b.Emit(isa.Instruction{Op: op})
		return nil

	case isa.ClassLoad: // ld rD, imm(rB)
		if err := need(2); err != nil {
			return err
		}
		d, err := asmReg(args[0])
		if err != nil {
			return err
		}
		imm, base, err := asmMemOperand(args[1])
		if err != nil {
			return err
		}
		b.Ld(d, base, imm)
		return nil

	case isa.ClassStore: // st rV, imm(rB)
		if err := need(2); err != nil {
			return err
		}
		v, err := asmReg(args[0])
		if err != nil {
			return err
		}
		imm, base, err := asmMemOperand(args[1])
		if err != nil {
			return err
		}
		b.St(v, base, imm)
		return nil

	case isa.ClassBranch: // beq r1, r2, label
		if err := need(3); err != nil {
			return err
		}
		s1, err := asmReg(args[0])
		if err != nil {
			return err
		}
		s2, err := asmReg(args[1])
		if err != nil {
			return err
		}
		b.br(op, s1, s2, args[2])
		return nil

	case isa.ClassJump:
		switch op {
		case isa.JMP:
			if err := need(1); err != nil {
				return err
			}
			b.Jmp(args[0])
		case isa.JAL:
			if err := need(2); err != nil {
				return err
			}
			d, err := asmReg(args[0])
			if err != nil {
				return err
			}
			b.Jal(d, args[1])
		case isa.JR:
			if err := need(1); err != nil {
				return err
			}
			s, err := asmReg(args[0])
			if err != nil {
				return err
			}
			b.Jr(s)
		}
		return nil
	}

	// ALU and complex forms.
	if op == isa.LDI {
		if err := need(2); err != nil {
			return err
		}
		d, err := asmReg(args[0])
		if err != nil {
			return err
		}
		imm, err := asmInt(args[1])
		if err != nil {
			return err
		}
		b.Ldi(d, imm)
		return nil
	}
	if err := need(3); err != nil {
		return err
	}
	d, err := asmReg(args[0])
	if err != nil {
		return err
	}
	s1, err := asmReg(args[1])
	if err != nil {
		return err
	}
	switch op {
	case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SHLI, isa.SHRI, isa.SLTI:
		imm, err := asmInt(args[2])
		if err != nil {
			return err
		}
		b.rri(op, d, s1, imm)
	default:
		s2, err := asmReg(args[2])
		if err != nil {
			return err
		}
		b.rrr(op, d, s1, s2)
	}
	return nil
}

func asmReg(s string) (isa.Reg, error) {
	if len(s) < 2 || (s[0] != 'r' && s[0] != 'R') {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= isa.NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return isa.Reg(n), nil
}

func asmInt(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	return v, nil
}

// asmMemOperand parses "imm(rB)".
func asmMemOperand(s string) (imm int64, base isa.Reg, err error) {
	open := strings.IndexByte(s, '(')
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q, want imm(rB)", s)
	}
	immStr := s[:open]
	if immStr == "" {
		immStr = "0"
	}
	imm, err = asmInt(immStr)
	if err != nil {
		return 0, 0, err
	}
	base, err = asmReg(s[open+1 : len(s)-1])
	return imm, base, err
}
