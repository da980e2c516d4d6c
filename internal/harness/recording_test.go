package harness

import (
	"context"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/emu"
	"valuespec/internal/isa"
	"valuespec/internal/program"
	"valuespec/internal/trace"
)

// TestTraceCacheReplaysKernels replays every kernel, at scale 1 and at its
// default scale, through TraceCache.Source and compares it field for field
// with a fresh emulator run; each replay must read its load log exactly.
// It also bounds what the compact recording stores: at most 1 byte per
// record at either scale, since a recording holds only the program and
// each load's value.
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
			if err := src.(*trace.MemorySource).Err(); err != nil {
				t.Fatalf("%s@%d: %v", w.Name, scale, err)
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

// TestFaultingWorkloadFailsItsSpec runs a workload that runs off the end
// of its code (two ADDIs, no HALT): the emulator faults at PC 2, and the
// spec must fail with that fault on the replay path and on the
// execute-driven path, not pass as a run that finished at the fault.
func TestFaultingWorkloadFailsItsSpec(t *testing.T) {
	w := bench.Workload{Name: "no-halt", DefaultScale: 1, Build: func(int) *program.Program {
		return program.MustAssemble("addi r1, r1, 1\naddi r2, r1, 2")
	}}
	spec := Spec{Workload: w, Config: cpu.Config8x48()}
	const want = "pc 2 out of range [0,2)"
	if _, err := simulateAll(context.Background(), []Spec{spec}, NewTraceCache(), nil); err == nil ||
		!strings.Contains(err.Error(), want) {
		t.Errorf("replay path: err = %v, want the fault %q", err, want)
	}
	if _, err := Simulate(spec); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("execute-driven path: err = %v, want the fault %q", err, want)
	}
}

// TestReplayRejectsWrongLoadLog replays a kernel's recording with its load
// log one value short and one value long, through a cache that holds the
// forged recording: each spec must fail with the cursor's error, where
// the exact log reproduces the emulator's statistics.
func TestReplayRejectsWrongLoadLog(t *testing.T) {
	w := bench.All()[0]
	great := core.Great()
	spec := Spec{Workload: w, Scale: 1, Config: cpu.Config8x48(), Model: &great}
	want, err := simulate(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := w.Build(1)
	m, err := emu.New(p)
	if err != nil {
		t.Fatal(err)
	}
	var vals []int64
	n := 0
	for r, ok := m.NextRef(); ok; r, ok = m.NextRef() {
		n++
		if r.Instr.Op == isa.LD {
			vals = append(vals, r.DstVal)
		}
	}
	logOf := func(vals []int64) []byte {
		var log []byte
		for _, v := range vals {
			log = binary.AppendVarint(log, v)
		}
		return log
	}
	for _, tc := range []struct {
		name string
		log  []byte
		fail string // "" for a clean run
	}{
		{"exact", logOf(vals), ""},
		{"one value dropped", logOf(vals[:len(vals)-1]), "load log ran out"},
		{"one value appended", logOf(append(vals[:len(vals):len(vals)], 7)), "left after the last record"},
	} {
		c := NewTraceCache()
		e := &traceEntry{rec: trace.NewRecording(isa.Decode(p.Code), p.Entry, n, tc.log)}
		e.once.Do(func() {})
		c.entries[traceKey{workload: w.Name, scale: 1}] = e
		got, err := simulate(spec, c)
		switch {
		case tc.fail == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.fail == "" && *got.Stats != *want.Stats:
			t.Errorf("%s: replayed stats differ from the emulator's\nreplay:  %+v\nemulator: %+v", tc.name, *got.Stats, *want.Stats)
		case tc.fail != "" && (err == nil || !strings.Contains(err.Error(), tc.fail)):
			t.Errorf("%s: err = %v, want one saying %q", tc.name, err, tc.fail)
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
