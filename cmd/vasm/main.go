// Command vasm is the toolchain utility for the valuespec ISA: it
// assembles, disassembles and functionally executes programs.
//
// Usage:
//
//	vasm prog.s                  # assemble and run; print the exit state
//	vasm -run=false prog.s       # assemble only (syntax check)
//	vasm -disasm prog.s          # assemble, then print the disassembly
//	vasm -disasm -bench compress # disassemble a built-in workload
//	vasm -budget 10000 prog.s    # cap execution
//	vasm -dump 0x100:8 prog.s    # also dump 8 words of memory at 0x100
//
// A program that faults, say by running off the end of its code, prints its
// state as a halted one does and then fails with the fault (exit status 1).
//
// The assembly syntax is documented in internal/program (see Assemble).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"valuespec/internal/bench"
	"valuespec/internal/emu"
	"valuespec/internal/isa"
	"valuespec/internal/program"
	"valuespec/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vasm: ")
	var (
		run       = flag.Bool("run", true, "execute the program after assembling")
		disasm    = flag.Bool("disasm", false, "print the disassembly")
		benchName = flag.String("bench", "", "operate on a built-in workload instead of a file")
		scale     = flag.Int("scale", 1, "scale for -bench")
		budget    = flag.Int64("budget", 10_000_000, "dynamic instruction budget")
		dump      = flag.String("dump", "", "memory range to dump after the run, ADDR:COUNT")
		mix       = flag.Bool("mix", false, "print the dynamic instruction-class mix")
		objOut    = flag.String("o", "", "write the assembled program as a binary object file")
		traceOut  = flag.String("savetrace", "", "record the dynamic trace into this file while running")
	)
	flag.Parse()

	prog, err := loadProgram(*benchName, *scale, flag.Args())
	if err != nil {
		log.Fatal(err)
	}
	if *disasm {
		fmt.Print(prog.Disassemble())
	}
	if *objOut != "" {
		f, err := os.Create(*objOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := prog.WriteBinary(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d instructions)\n", *objOut, len(prog.Code))
	}
	if !*run {
		return
	}

	m, err := emu.New(prog, emu.WithBudget(*budget))
	if err != nil {
		log.Fatal(err)
	}
	var tw *trace.Writer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tw, err = trace.NewWriter(f)
		if err != nil {
			log.Fatal(err)
		}
	}
	var dyn trace.Mix
	runErr := execute(m, &dyn, tw)
	fmt.Printf("%s: %d instructions executed, halted=%t, final pc=%d\n",
		prog.Name, m.Executed(), m.Halted(), m.PC())
	if *mix {
		for c := isa.ClassALU; c <= isa.ClassNop; c++ {
			fmt.Printf("  %-8s %6.2f%%\n", c, 100*dyn.Frac(c))
		}
		fmt.Printf("  %-8s %6.2f%%\n", "regwrite", 100*dyn.RegWriteFrac())
	}
	fmt.Println("registers:")
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if v := m.Reg(r); v != 0 {
			fmt.Printf("  %-4s %d\n", r, v)
		}
	}
	if *dump != "" {
		addr, count, err := parseDump(*dump)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("memory [%#x, %#x):\n", addr, addr+count)
		for i := int64(0); i < count; i++ {
			fmt.Printf("  %#06x: %d\n", addr+i, m.Mem(addr+i))
		}
	}
	if tw != nil {
		if err := tw.Flush(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recorded %d trace records to %s\n", tw.Count(), *traceOut)
	}
	if runErr != nil {
		log.Fatal(runErr)
	}
}

// execute runs m to its end, observing each record into mix and, when tw is
// non-nil, writing it to the trace. It returns the fault that stopped the
// machine (Machine.Err), or nil after HALT or an exhausted budget.
func execute(m *emu.Machine, mix *trace.Mix, tw *trace.Writer) error {
	for {
		rec, ok := m.Next()
		if !ok {
			return m.Err()
		}
		mix.Observe(&rec)
		if tw != nil {
			if err := tw.Write(&rec); err != nil {
				return err
			}
		}
	}
}

func loadProgram(benchName string, scale int, args []string) (*program.Program, error) {
	if benchName != "" {
		w, err := bench.ByName(benchName)
		if err != nil {
			return nil, err
		}
		return w.Build(scale), nil
	}
	if len(args) != 1 {
		return nil, fmt.Errorf("want exactly one source file (or -bench NAME)")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(src, []byte("VSPC")) {
		return program.ReadBinary(bytes.NewReader(src))
	}
	prog, err := program.Assemble(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", args[0], err)
	}
	if prog.Name == "asm" {
		prog.Name = args[0]
	}
	return prog, nil
}

func parseDump(s string) (addr, count int64, err error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -dump %q, want ADDR:COUNT", s)
	}
	addr, err = strconv.ParseInt(parts[0], 0, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad -dump address %q", parts[0])
	}
	count, err = strconv.ParseInt(parts[1], 0, 64)
	if err != nil || count <= 0 {
		return 0, 0, fmt.Errorf("bad -dump count %q", parts[1])
	}
	return addr, count, nil
}
