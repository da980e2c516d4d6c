package harness

import (
	"context"
	"math"
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
// PCs, and at most 1 byte per record at either scale, since only load
// results are stored. A derivation bug that silently falls back to
// verbatim copies fails here, not only in the benchmark's memory numbers.
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
		t.Logf("default scale %t: %d records in %d bytes, %.3f B/record",
			atDefault, c.CachedRecords(), c.CachedBytes(), perRec)
		if perRec > 1 {
			t.Errorf("%.2f B/record at default scale %t, want at most 1", perRec, atDefault)
		}
	}
}

// TestResultsReleasePipelines holds the results of a batch and checks that
// the live heap stays flat: each Result carries its own copy of the
// statistics, so the batch's pipelines (a few MiB each of predictor,
// confidence, gshare and cache tables) go back to the spare pool as soon as
// their spec ends instead of living as long as the results. The pool keeps
// about one spare per concurrent spec on purpose, so a first batch fills it
// before the measurement, and liveHeap lets the collector free the idle
// spares: how many a pool holds varies from run to run, and the race
// detector drops some at random.
func TestResultsReleasePipelines(t *testing.T) {
	w := bench.All()[0]
	cache := NewTraceCache()
	great := core.Great()
	specs := make([]Spec, 8)
	for i := range specs {
		specs[i] = Spec{Workload: w, Scale: 1, Config: cpu.Config8x48(), Model: &great}
	}
	// Record the trace and warm the spare pool outside the measurement.
	if _, err := simulateAll(context.Background(), specs, cache, nil); err != nil {
		t.Fatal(err)
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

// TestSimulateRecyclesTables checks that specs recycle their tables: once
// a spec has run, a second default spec resets the spare pipeline, FCM and
// confidence tables the first one left in the pool, and allocates little
// beyond its replay cursor. It also bounds what a fresh spare allocates,
// ~0.9 MiB: the PC-indexed tables hold only what the program writes, and
// the largest remaining tables are the FCM's 512 KiB prediction table and
// the 256 KiB L2 (a fresh spare allocated ~2.2 MB when every table held
// its modeled size).
func TestSimulateRecyclesTables(t *testing.T) {
	w := bench.All()[0]
	cache := NewTraceCache()
	great := core.Great()
	spec := Spec{Workload: w, Scale: 1, Config: cpu.Config8x48(), Model: &great}
	if _, err := simulate(spec, cache); err != nil { // records the trace
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, _, err := newPipeline(spec, cache, new(spare))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	fresh := after.TotalAlloc - before.TotalAlloc
	t.Logf("a default spec on a fresh spare allocated %d KiB", fresh>>10)
	if fresh >= 1<<20 {
		t.Errorf("a default spec on a fresh spare allocated %d KiB, want under 1 MiB", fresh>>10)
	}
	// A sync.Pool may drop a spare (at random under the race detector, or
	// when the goroutine moves to another P), so take the least of a few
	// runs.
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := simulate(spec, cache); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("second default spec allocated %d KiB", least>>10)
	if least >= 64<<10 {
		t.Errorf("second default spec allocated %d KiB, want under 64 KiB", least>>10)
	}
}

// liveHeap returns the bytes of live heap objects after two full
// collections: a sync.Pool frees an idle item at the second collection
// after it was put back, so the spare pool's tables do not count as live.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
