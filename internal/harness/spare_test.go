package harness

import (
	"reflect"
	"testing"
	"unsafe"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
)

// spareTables returns the storage of every table a spare holds for a
// spec: the FCM, the confidence counters, the branch predictor and the
// caches, one byte slice per Go slice over its whole capacity. The spare's
// pipeline window is sized by the configuration, not the program, and is
// not counted.
func spareTables(sp *spare) [][]byte {
	var out [][]byte
	for _, t := range []any{sp.fcm, sp.conf, sp.p.Branch(), sp.p.Hierarchy()} {
		out = sliceStorage(reflect.ValueOf(t), out)
	}
	return out
}

// sliceStorage appends the backing bytes of every slice reachable from v
// through pointers and struct fields. The tables hold plain numbers, so
// their bytes may be read and written directly.
func sliceStorage(v reflect.Value, out [][]byte) [][]byte {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			out = sliceStorage(v.Elem(), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = sliceStorage(v.Field(i), out)
		}
	case reflect.Slice:
		if n := v.Cap() * int(v.Type().Elem().Size()); n > 0 {
			out = append(out, unsafe.Slice((*byte)(v.UnsafePointer()), n))
		}
	}
	return out
}

// resetBytes fills every byte of the spare's tables with a marker, resets
// the tables as the next spec would, and returns how many bytes the Reset
// wrote: every byte that no longer holds the marker.
func resetBytes(sp *spare) int {
	const marker = 0x5a
	tables := spareTables(sp)
	for _, b := range tables {
		for i := range b {
			b[i] = marker
		}
	}
	sp.fcm.Reset()
	sp.conf.Reset()
	sp.p.Branch().Reset()
	sp.p.Hierarchy().Reset()
	n := 0
	for _, b := range tables {
		for _, c := range b {
			if c != marker {
				n++
			}
		}
	}
	return n
}

// BenchmarkSpareFootprint runs one default Great D/R spec per kernel, each
// on a fresh spare, and reports what the eight spares cost: table-bytes/op
// is the storage of their tables after the spec (see spareTables), and
// reset-bytes/op the bytes their Reset writes before a next spec. Both
// follow what each program touches, not the modeled table sizes, and
// benchcheck holds them exactly.
func BenchmarkSpareFootprint(b *testing.B) {
	cache := NewTraceCache()
	great := core.Great()
	var specs []Spec
	for _, w := range bench.All() {
		specs = append(specs, Spec{Workload: w, Scale: 1, Config: cpu.Config8x48(), Model: &great,
			Setting: Setting{Update: cpu.UpdateDelayed}})
	}
	for _, s := range specs { // record the traces outside the measurement
		if _, err := simulate(s, cache); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	var held, reset int
	for i := 0; i < b.N; i++ {
		held, reset = 0, 0
		for _, s := range specs {
			sp := new(spare)
			p, _, err := newPipeline(s, cache, sp)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Run(); err != nil {
				b.Fatal(err)
			}
			for _, t := range spareTables(sp) {
				held += len(t)
			}
			reset += resetBytes(sp)
		}
	}
	b.ReportMetric(float64(held), "table-bytes/op")
	b.ReportMetric(float64(reset), "reset-bytes/op")
}
