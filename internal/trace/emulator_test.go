package trace_test

import (
	"testing"

	"valuespec/internal/bench"
	"valuespec/internal/emu"
	"valuespec/internal/isa"
	"valuespec/internal/program"
	"valuespec/internal/trace"
)

// TestRecordingConcatenatedPrograms round-trips a stream shaped like the
// cpu package's wakeup traces: different programs run back to back for a
// few thousand records each, renumbered into one Seq. Each boundary breaks
// the replay cursor's state at once: the code table holds the previous
// program's templates, the shadow registers its values, and the expected
// next PC is wherever it stopped. The stream must still replay exactly,
// and the damage stays bounded: per program at most one verbatim record
// per static PC, per stale register, and for the boundary itself.
func TestRecordingConcatenatedPrograms(t *testing.T) {
	var recs []trace.Record
	bound := 0
	ws := bench.All()
	for i, w := range append(ws, ws[0]) {
		prog := w.Build(1)
		m, err := emu.New(prog, emu.WithBudget(int64(2000+250*i)))
		if err != nil {
			t.Fatal(err)
		}
		got := trace.Collect(m, 0)
		for j := range got {
			got[j].Seq = int64(len(recs) + j)
		}
		recs = append(recs, got...)
		bound += len(prog.Code) + isa.NumRegs + 1
	}
	rec := trace.Encode(&trace.SliceSource{Records: recs})
	if rec.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", rec.Len(), len(recs))
	}
	replay := trace.Collect(rec.Source(), 0)
	if len(replay) != len(recs) {
		t.Fatalf("replayed %d records, recorded %d", len(replay), len(recs))
	}
	for i := range recs {
		if replay[i] != recs[i] {
			t.Fatalf("record %d differs\nrecorded: %+v\nreplayed: %+v", i, recs[i], replay[i])
		}
	}
	t.Logf("%d records, %d irregular, %.2f B/record",
		len(recs), rec.Irregular(), float64(rec.Bytes())/float64(len(recs)))
	if rec.Irregular() > bound {
		t.Errorf("%d irregular records, want at most %d", rec.Irregular(), bound)
	}
}

// BenchmarkRecordKernels emulates and encodes the eight kernels at their
// default scale, the trace cache's cold-start work. Its work counters pin
// what the recordings hold: the records, how many of them are stored
// verbatim, and the recordings' bytes. They move only when a kernel, the
// emulator or the encoding does.
func BenchmarkRecordKernels(b *testing.B) {
	ws := bench.All()
	progs := make([]*program.Program, len(ws))
	for i, w := range ws {
		progs[i] = w.Program()
	}
	var records, irregular, bytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records, irregular, bytes = 0, 0, 0
		for _, p := range progs {
			m, err := emu.New(p)
			if err != nil {
				b.Fatal(err)
			}
			rec := trace.Encode(m)
			records += int64(rec.Len())
			irregular += int64(rec.Irregular())
			bytes += rec.Bytes()
		}
	}
	b.ReportMetric(float64(records), "records/op")
	b.ReportMetric(float64(irregular), "irregular/op")
	b.ReportMetric(float64(bytes), "recording-bytes/op")
}
