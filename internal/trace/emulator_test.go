package trace_test

import (
	"testing"

	"valuespec/internal/bench"
	"valuespec/internal/emu"
	"valuespec/internal/isa"
	"valuespec/internal/program"
	"valuespec/internal/trace"
)

// FuzzRecordingRoundTrip records random valid programs on the emulator,
// under a budget of 4,096 instructions, and replays each recording: every
// replayed record must equal the one a fresh emulator run hands over,
// field for field, the replay must end where the run did, and it must read
// the load log exactly. A program that faults must fail its recording with
// the emulator's fault. The emulator's rules are checked against a
// reference that shares none of them in internal/emu.
func FuzzRecordingRoundTrip(f *testing.F) {
	for _, src := range []string{
		"halt",
		"ldi r1, 6\naddi r2, r1, -3\nsub r3, r1, r2\nslt r4, r2, r1\nsra r5, r2, r1\nhalt",
		"ldi r1, 7\nmul r3, r1, r1\ndiv r4, r3, r0\nrem r5, r3, r1\nhalt",
		".word 5 42\nldi r1, 5\nld r2, (r1)\nld r3, 1(r1)\nhalt",
		// Loads of negative values and from a negative address.
		".word 3 -100\nldi r1, 3\nld r2, (r1)\nld r3, (r2)\nhalt",
		"ldi r1, 20\nldi r2, 77\nst r2, (r1)\nld r3, (r1)\nhalt",
		"ldi r1, 3\nloop: addi r1, r1, -1\nbne r1, r0, loop\nblt r1, r0, loop\nbge r1, r0, done\nnop\ndone: halt",
		"ldi r1, 10\njal r31, double\njal r31, double\nhalt\ndouble: add r1, r1, r1\njr r31",
		// A fault and an exhausted budget.
		"ldi r1, 99\njr r1",
		"spin: ld r1, 4(r1)\njmp spin",
	} {
		f.Add(fuzzInput(program.MustAssemble(src)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzProgram(data)
		if p == nil {
			return
		}
		const budget = 4096
		rec, rerr := emu.Record(p, emu.WithBudget(budget))
		m, err := emu.New(p, emu.WithBudget(budget))
		if err != nil {
			t.Fatalf("decoded an invalid program: %v", err)
		}
		want := trace.Collect(m, 0)
		if m.Err() != nil {
			if rerr == nil || rerr.Error() != m.Err().Error() {
				t.Fatalf("the run faulted with %v, its recording with %v", m.Err(), rerr)
			}
			return
		}
		if rerr != nil {
			t.Fatalf("recording a run that ends cleanly: %v", rerr)
		}
		if rec.Len() != len(want) {
			t.Fatalf("Len = %d, the run executed %d", rec.Len(), len(want))
		}
		src := rec.Source()
		for i := range want {
			got, ok := src.NextRef()
			if !ok {
				t.Fatalf("replay ended after %d of %d records: %v", i, len(want), src.Err())
			}
			if *got != want[i] {
				t.Fatalf("record %d differs\nemulator: %+v\nreplay:   %+v", i, want[i], *got)
			}
		}
		if r, ok := src.NextRef(); ok {
			t.Fatalf("replay runs past the run's end: %+v", *r)
		}
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
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

// BenchmarkRecordKernels records the eight kernels at their default scale
// through the emulator, the trace cache's cold-start work. Its work
// counters pin what the recordings hold: the records and the recordings'
// bytes. They move only when a kernel, the emulator or the recording
// format does.
func BenchmarkRecordKernels(b *testing.B) {
	ws := bench.All()
	progs := make([]*program.Program, len(ws))
	for i, w := range ws {
		progs[i] = w.Program()
	}
	var records, bytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records, bytes = 0, 0
		for _, p := range progs {
			rec, err := emu.Record(p)
			if err != nil {
				b.Fatal(err)
			}
			records += int64(rec.Len())
			bytes += rec.Bytes()
		}
	}
	b.ReportMetric(float64(records), "records/op")
	b.ReportMetric(float64(bytes), "recording-bytes/op")
}

// replaySink keeps BenchmarkReplayKernels' reads observable to the
// compiler.
var replaySink int64

// BenchmarkReplayKernels replays the eight kernels' default-scale
// recordings, made outside the timer, through a fresh cursor each per
// iteration: the replay cursor's cost, which every replayed spec pays per
// record. Its work counter pins the records replayed.
func BenchmarkReplayKernels(b *testing.B) {
	var recs []*trace.Recording
	for _, w := range bench.All() {
		rec, err := emu.Record(w.Program())
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, rec)
	}
	var records, sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records = 0
		for _, rec := range recs {
			src := rec.Source()
			for r, ok := src.NextRef(); ok; r, ok = src.NextRef() {
				sink += r.DstVal
				records++
			}
			if err := src.Err(); err != nil {
				b.Fatal(err)
			}
		}
	}
	replaySink = sink
	b.ReportMetric(float64(records), "records/op")
}
