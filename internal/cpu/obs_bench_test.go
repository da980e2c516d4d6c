package cpu

// Benchmarks proving the observability layer's cost contract (see
// docs/OBSERVABILITY.md):
//
//	BenchmarkEmitNilObserver   the uninstrumented emit fast path: 0 allocs/op
//	BenchmarkEmitRingLog       the bounded-observer emit path: 0 allocs/op steady-state
//	BenchmarkRunNilObserver    whole-pipeline baseline throughput
//	BenchmarkRunRingLog        the same run with a RingLog attached (~within 10%)
//	BenchmarkRunMetrics        the same run with the Telemetry instrument attached

import (
	"testing"

	"valuespec/internal/isa"
	"valuespec/internal/trace"
)

// benchChain builds an n-instruction dependence chain cycling through eight
// registers, so n is not bounded by the register count like chainN.
func benchChain(n int) []trace.Record {
	recs := make([]trace.Record, n)
	val := int64(1)
	for i := range recs {
		src := isa.Reg(10)
		if i > 0 {
			src = isa.Reg((i-1)%8 + 1)
		}
		recs[i] = trace.Record{
			Seq: int64(i), PC: i,
			Instr:   isa.Instruction{Op: isa.ADD, Dst: isa.Reg(i%8 + 1), Src1: src, Src2: src},
			NSrc:    2,
			SrcRegs: [2]isa.Reg{src, src},
			SrcVals: [2]int64{val, val},
			DstVal:  val * 2,
			NextPC:  i + 1,
		}
		val *= 2
	}
	return recs
}

// emitFixture builds a pipeline whose head entry can feed emit directly.
func emitFixture(b *testing.B, o Observer) (*Pipeline, *entry) {
	b.Helper()
	p, err := New(Config8x48(), nil, &trace.SliceSource{})
	if err != nil {
		b.Fatal(err)
	}
	p.SetObserver(o)
	e := &p.entries[0]
	e.rec.Seq = 7
	e.rec.PC = 3
	e.idx = 0
	return p, e
}

func BenchmarkEmitNilObserver(b *testing.B) {
	p, e := emitFixture(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.emit(int64(i), EvIssue, e)
	}
}

func BenchmarkEmitRingLog(b *testing.B) {
	p, e := emitFixture(b, NewRingLog(4096))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.emit(int64(i), EvIssue, e)
	}
}

// runBench measures end-to-end simulation of a dependence chain under the
// given per-iteration instrumentation.
func runBench(b *testing.B, instrument func(*Pipeline)) {
	recs := benchChain(500)
	var retired int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(flatMemConfig(Config8x48()), nil, &trace.SliceSource{Records: recs})
		if err != nil {
			b.Fatal(err)
		}
		if instrument != nil {
			instrument(p)
		}
		st, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		retired += st.Retired
	}
	b.ReportMetric(float64(retired)/b.Elapsed().Seconds(), "instrs/s")
}

func BenchmarkRunNilObserver(b *testing.B) {
	runBench(b, nil)
}

func BenchmarkRunRingLog(b *testing.B) {
	runBench(b, func(p *Pipeline) { p.SetObserver(NewRingLog(4096)) })
}

func BenchmarkRunMetrics(b *testing.B) {
	runBench(b, func(p *Pipeline) { p.SetTelemetry(NewTelemetry(1000, 4096)) })
}
