package harness

import (
	"context"
	"errors"
	"testing"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/obs"
)

// TestProgressTracksSimulateAll runs a small batch on the worker pool with
// a tracker attached and checks the snapshot and the published registry
// agree with the results.
func TestProgressTracksSimulateAll(t *testing.T) {
	w, err := bench.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	great := core.Great()
	specs := []Spec{
		{Workload: w, Scale: testScale, Config: cpu.Config8x48()},
		{Workload: w, Scale: testScale, Config: cpu.Config8x48(),
			Model: &great, Setting: Setting{Update: cpu.UpdateImmediate}},
		{Workload: w, Scale: testScale, Config: cpu.Config8x48(),
			Model: &great, Setting: Setting{Update: cpu.UpdateDelayed}},
	}
	shared := obs.NewSharedRegistry()
	pr := NewProgress(shared)
	cache := NewTraceCache()
	results, err := simulateAll(context.Background(), specs, cache, pr)
	if err != nil {
		t.Fatal(err)
	}
	pr.Finish()

	var wantCycles, wantRetired int64
	for _, r := range results {
		wantCycles += r.Stats.Cycles
		wantRetired += r.Stats.Retired
	}
	snap := pr.Snapshot()
	if snap.SpecsTotal != 3 || snap.SpecsCompleted != 3 || snap.SpecsFailed != 0 || snap.SpecsInFlight != 0 {
		t.Errorf("snapshot counts = %+v, want 3 total, 3 completed, 0 failed, 0 inflight", snap)
	}
	if snap.CyclesTotal != wantCycles || snap.Retired != wantRetired {
		t.Errorf("snapshot cycles/retired = %d/%d, want %d/%d",
			snap.CyclesTotal, snap.Retired, wantCycles, wantRetired)
	}
	if snap.CacheMisses != 1 || snap.CacheHits != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 2/1", snap.CacheHits, snap.CacheMisses)
	}
	if !snap.Done {
		t.Error("snapshot not Done after Finish")
	}
	if snap.ETASeconds != 0 {
		t.Errorf("ETA = %g after Finish, want 0", snap.ETASeconds)
	}
	if snap.SpecSecEWMA <= 0 {
		t.Errorf("EWMA = %g, want > 0", snap.SpecSecEWMA)
	}

	reg := shared.Snapshot()
	if got := reg.Counter("retired").Value(); got != wantRetired {
		t.Errorf("published retired = %d, want %d", got, wantRetired)
	}
	if got := reg.Counter(MetricSpecsCompleted).Value(); got != 3 {
		t.Errorf("published completed = %d, want 3", got)
	}
	if got := reg.Histogram(MetricSpecCycles).Count(); got != 3 {
		t.Errorf("published spec-cycle samples = %d, want 3", got)
	}
	if got := reg.Gauge(MetricSpecsInflight).Value(); got != 0 {
		t.Errorf("published inflight = %g, want 0", got)
	}
}

// TestProgressFailurePath checks the failure accounting: a failing spec
// counts as failed while the rest of the batch runs to completion, and the
// batch total covers every accepted spec.
func TestProgressFailurePath(t *testing.T) {
	w, err := bench.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	bad := Spec{Workload: w, Scale: testScale, Config: cpu.Config{IssueWidth: 0, WindowSize: 48}}
	good := Spec{Workload: w, Scale: testScale, Config: cpu.Config8x48()}
	shared := obs.NewSharedRegistry()
	pr := NewProgress(shared)
	if _, err := simulateAll(context.Background(), []Spec{bad, good, good, good}, nil, pr); err == nil {
		t.Fatal("expected an error from the invalid config")
	}
	snap := pr.Snapshot()
	if snap.SpecsTotal != 4 {
		t.Errorf("total = %d, want 4", snap.SpecsTotal)
	}
	if snap.SpecsFailed != 1 {
		t.Errorf("failed = %d, want 1", snap.SpecsFailed)
	}
	if snap.SpecsInFlight != 0 {
		t.Errorf("inflight = %d, want 0 after the pool drained", snap.SpecsInFlight)
	}
	if snap.SpecsCompleted+snap.SpecsFailed > snap.SpecsTotal {
		t.Errorf("completed %d + failed %d exceeds total %d",
			snap.SpecsCompleted, snap.SpecsFailed, snap.SpecsTotal)
	}
	if got := shared.Snapshot().Counter(MetricSpecsFailed).Value(); got != 1 {
		t.Errorf("published failed = %d, want 1", got)
	}
}

// TestProgressSpecDoneError drives the failure path directly: SpecDone with
// an error counts the spec as failed and contributes nothing to the run
// totals, the EWMA, or the per-spec cycle histogram — a failed simulation
// has no cycles worth averaging.
func TestProgressSpecDoneError(t *testing.T) {
	shared := obs.NewSharedRegistry()
	pr := NewProgress(shared)
	pr.BatchStart(2)
	pr.SpecStart()
	pr.SpecDone(nil, errors.New("boom"), 5_000_000_000)
	snap := pr.Snapshot()
	if snap.SpecsFailed != 1 || snap.SpecsCompleted != 0 || snap.SpecsInFlight != 0 {
		t.Errorf("failed/completed/inflight = %d/%d/%d, want 1/0/0",
			snap.SpecsFailed, snap.SpecsCompleted, snap.SpecsInFlight)
	}
	if snap.CyclesTotal != 0 || snap.Retired != 0 {
		t.Errorf("failed spec leaked totals: cycles %d retired %d", snap.CyclesTotal, snap.Retired)
	}
	if snap.SpecSecEWMA != 0 {
		t.Errorf("failed spec fed the EWMA: %g", snap.SpecSecEWMA)
	}
	reg := shared.Snapshot()
	if got := reg.Counter(MetricSpecsFailed).Value(); got != 1 {
		t.Errorf("published failed = %d, want 1", got)
	}
	if got := reg.Histogram(MetricSpecCycles).Count(); got != 0 {
		t.Errorf("failed spec sampled the cycle histogram: %d", got)
	}

	// Stats attached to an errored spec are ignored too (a partial run).
	pr.SpecStart()
	pr.SpecDone(&cpu.Stats{Cycles: 100, Retired: 50}, errors.New("late failure"), 0)
	if snap = pr.Snapshot(); snap.CyclesTotal != 0 || snap.SpecsFailed != 2 {
		t.Errorf("errored spec with stats: cycles %d failed %d, want 0/2", snap.CyclesTotal, snap.SpecsFailed)
	}
}

// TestProgressETABeforeCompletion pins the estimate before any spec has
// finished: with no duration samples there is nothing to extrapolate from,
// so the ETA reads zero (unknown) rather than a fabricated number — even
// with work queued and in flight.
func TestProgressETABeforeCompletion(t *testing.T) {
	pr := NewProgress(obs.NewSharedRegistry())
	pr.BatchStart(100)
	pr.SpecStart()
	snap := pr.Snapshot()
	if snap.ETASeconds != 0 {
		t.Errorf("ETA = %g before any completion, want 0", snap.ETASeconds)
	}
	if snap.Done {
		t.Error("Done before Finish")
	}
	if snap.SpecsInFlight != 1 || snap.SpecsTotal != 100 {
		t.Errorf("inflight/total = %d/%d, want 1/100", snap.SpecsInFlight, snap.SpecsTotal)
	}
	// Failures alone still leave the ETA unknown: no successful duration.
	pr.SpecDone(nil, errors.New("boom"), 1_000_000_000)
	if eta := pr.Snapshot().ETASeconds; eta != 0 {
		t.Errorf("ETA = %g after only failures, want 0", eta)
	}
	// The first success turns the estimate on.
	pr.SpecStart()
	pr.SpecDone(&cpu.Stats{}, nil, 1_000_000_000)
	if eta := pr.Snapshot().ETASeconds; eta <= 0 {
		t.Errorf("ETA = %g after a completion, want > 0", eta)
	}
}

// TestProgressETA checks the estimate's shape without depending on wall
// time: with a known EWMA and worker count, ETA = ewma * remaining / workers,
// and it reaches zero when everything is done.
func TestProgressETA(t *testing.T) {
	pr := NewProgress(obs.NewSharedRegistry())
	pr.workers = 4
	pr.BatchStart(9)
	pr.SpecStart()
	pr.SpecDone(&cpu.Stats{Cycles: 100, Retired: 50}, nil, 2_000_000_000) // 2s
	snap := pr.Snapshot()
	want := 2.0 * 8 / 4
	if diff := snap.ETASeconds - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("ETA = %g, want %g", snap.ETASeconds, want)
	}
	for i := 0; i < 8; i++ {
		pr.SpecStart()
		pr.SpecDone(&cpu.Stats{Cycles: 100, Retired: 50}, nil, 1_000_000_000)
	}
	if eta := pr.Snapshot().ETASeconds; eta != 0 {
		t.Errorf("ETA = %g with nothing remaining, want 0", eta)
	}
}
