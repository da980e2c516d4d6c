package harness

import (
	"context"
	"runtime"
	"testing"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/emu"
	"valuespec/internal/trace"
)

// TestTraceCacheReplaysKernels replays every kernel, at scale 1 and at its
// default scale, through TraceCache.Source and compares it field for field
// with a fresh emulator run. It also bounds what the compact recording
// stores: no more irregular (verbatim) records than the kernel has static
// PCs, and at most 10 bytes per record at default scale. A prediction bug
// that silently falls back to verbatim copies fails here, not only in the
// benchmark's memory numbers.
func TestTraceCacheReplaysKernels(t *testing.T) {
	for _, atDefault := range []bool{false, true} {
		if atDefault && testing.Short() {
			t.Skip("default scale replays 2.2M records per pass")
		}
		c := NewTraceCache()
		for _, w := range bench.All() {
			scale := 1
			if atDefault {
				scale = w.DefaultScale
			}
			src, err := c.Source(w, scale)
			if err != nil {
				t.Fatal(err)
			}
			m, err := emu.New(w.Build(scale))
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for want, ok := m.Next(); ok; want, ok = m.Next() {
				got, ok := src.Next()
				if !ok {
					t.Fatalf("%s@%d: replay ended after %d records", w.Name, scale, n)
				}
				if got != want {
					t.Fatalf("%s@%d: record %d differs\nemulator: %+v\nreplay:   %+v", w.Name, scale, n, want, got)
				}
				n++
			}
			if _, ok := src.Next(); ok {
				t.Fatalf("%s@%d: replay runs past the emulator's %d records", w.Name, scale, n)
			}

			prog := w.Build(scale)
			m, err = emu.New(prog)
			if err != nil {
				t.Fatal(err)
			}
			if rec := trace.Encode(m); rec.Irregular() > len(prog.Code) {
				t.Errorf("%s@%d: %d irregular records, more than its %d static PCs",
					w.Name, scale, rec.Irregular(), len(prog.Code))
			}
		}
		perRec := float64(c.CachedBytes()) / float64(c.CachedRecords())
		t.Logf("default scale %t: %d records in %d bytes, %.2f B/record",
			atDefault, c.CachedRecords(), c.CachedBytes(), perRec)
		if atDefault && perRec > 10 {
			t.Errorf("%.2f B/record at default scale, want at most 10", perRec)
		}
	}
}

// TestResultsReleasePipelines holds the results of a batch and checks that
// the live heap stays flat: each Result carries its own copy of the
// statistics, so the batch's finished pipelines (a few MiB each of
// predictor, confidence, gshare and cache tables) are garbage as soon as
// their spec ends.
func TestResultsReleasePipelines(t *testing.T) {
	w := bench.All()[0]
	cache := NewTraceCache()
	if _, err := cache.Source(w, 1); err != nil { // record outside the measurement
		t.Fatal(err)
	}
	great := core.Great()
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = Spec{Workload: w, Scale: 1, Config: cpu.Config8x48(), Model: &great}
	}
	before := liveHeap()
	results, err := simulateAll(context.Background(), specs, cache, nil)
	if err != nil {
		t.Fatal(err)
	}
	grew := liveHeap() - before
	runtime.KeepAlive(results)
	t.Logf("live heap grew %d KiB holding %d results", grew>>10, len(results))
	if grew >= 2<<20 {
		t.Errorf("live heap grew %.1f MiB holding %d results, want under 2 MiB",
			float64(grew)/(1<<20), len(results))
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
