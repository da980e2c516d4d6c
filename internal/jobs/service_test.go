package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"valuespec/internal/bench"
	"valuespec/internal/core"
	"valuespec/internal/cpu"
	"valuespec/internal/harness"
	"valuespec/internal/obs"
)

// waitJob polls until the named job reaches a terminal state.
func waitJob(t *testing.T, s *Service, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		job, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if job.State.Terminal() {
			return job
		}
		time.Sleep(2 * time.Millisecond)
	}
	job, _ := s.Job(id)
	t.Fatalf("job %s stuck in state %s", id, job.State)
	return Job{}
}

func counterValue(reg *obs.SharedRegistry, name string) int64 {
	return reg.Snapshot().Counter(name).Value()
}

// TestServiceRunsAndDedups is the end-to-end acceptance path: a submitted
// job simulates for real and stores Stats byte-identical to a direct harness
// run, and re-submitting the same request is answered from the store without
// simulating, bumping the dedup counter.
func TestServiceRunsAndDedups(t *testing.T) {
	w := bench.All()[0]
	reg := obs.NewSharedRegistry()
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	req := Request{Name: "e2e", Specs: []SimSpec{
		{Workload: w.Name, Scale: 2},
	}}
	job, deduped, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if deduped {
		t.Fatal("first submission claimed a dedup hit")
	}
	job = waitJob(t, s, job.ID)
	if job.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", job.State, job.Error)
	}
	rs, err := s.Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Byte-identical Stats to a direct run of the same spec.
	direct, err := harness.SimulateAll([]harness.Spec{{Workload: w, Scale: 2, Config: cpu.Config8x48()}})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(rs.Results[0].Stats)
	want, _ := json.Marshal(direct[0].Stats)
	if string(got) != string(want) {
		t.Errorf("job Stats differ from a direct run:\n got %s\nwant %s", got, want)
	}

	// Second submission of the same matrix: answered from the store.
	sims := counterValue(reg, MetricCompleted)
	dup, deduped, err := s.Submit(Request{Name: "different name, same specs", Priority: 3, Specs: req.Specs})
	if err != nil {
		t.Fatal(err)
	}
	if !deduped || !dup.Deduped || dup.State != StateDone {
		t.Fatalf("duplicate submit: deduped=%v job=%+v", deduped, dup)
	}
	if counterValue(reg, MetricDedup) != 1 {
		t.Errorf("dedup counter = %d, want 1", counterValue(reg, MetricDedup))
	}
	if counterValue(reg, MetricCompleted) != sims {
		t.Error("duplicate submission re-simulated")
	}
	rs2, err := s.Result(dup.ID)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.SpecHash != rs.SpecHash {
		t.Errorf("dedup result hash %s, want %s", rs2.SpecHash, rs.SpecHash)
	}
	if s.Store().Len() != 1 {
		t.Errorf("store holds %d entries, want 1", s.Store().Len())
	}
}

// TestServiceTelemetry checks the telemetry opt-in end to end: with
// Config.Telemetry the stored results carry per-spec snapshots whose
// speculation-outcome quadrants reconcile against the stored Stats, the
// snapshots survive the JSON round trip through the store, and base-model
// results carry an empty (but present) breakdown.
func TestServiceTelemetry(t *testing.T) {
	w := bench.All()[0]
	model := core.Great()
	s, err := Open(Config{
		DataDir:           t.TempDir(),
		Workers:           1,
		Telemetry:         true,
		TelemetryInterval: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	job, _, err := s.Submit(Request{Specs: []SimSpec{
		{Workload: w.Name, Scale: 2},
		{Workload: w.Name, Scale: 2, Model: &model},
	}})
	if err != nil {
		t.Fatal(err)
	}
	job = waitJob(t, s, job.ID)
	if job.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", job.State, job.Error)
	}
	rs, err := s.Result(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs.Results {
		tl := r.Telemetry
		if tl == nil {
			t.Fatalf("result %d has no telemetry snapshot", i)
		}
		if tl.Interval != 256 {
			t.Errorf("result %d telemetry interval %d, want 256", i, tl.Interval)
		}
		if !tl.Outcomes.Reconciled() {
			t.Errorf("result %d outcomes do not reconcile: %+v", i, tl.Outcomes)
		}
		if len(tl.Series["sim.ipc"]) == 0 {
			t.Errorf("result %d has an empty IPC series", i)
		}
	}
	if base := rs.Results[0].Telemetry.Outcomes; base.Predictions != 0 {
		t.Errorf("base run recorded %d predictions", base.Predictions)
	}
	spec := rs.Results[1]
	if spec.Telemetry.Outcomes.Predictions == 0 || spec.Telemetry.Outcomes.Predictions != spec.Stats.Predictions {
		t.Errorf("speculative telemetry predictions %d, stats %d",
			spec.Telemetry.Outcomes.Predictions, spec.Stats.Predictions)
	}
}

// TestServiceRetryThenSucceed scripts two transient failures: the job must
// retry with backoff and land done with three attempts on the clock.
func TestServiceRetryThenSucceed(t *testing.T) {
	var calls atomic.Int64
	reg := obs.NewSharedRegistry()
	s, err := Open(Config{
		DataDir: t.TempDir(), Workers: 1, MaxRetries: 3,
		RetryBackoff: time.Millisecond, Metrics: reg,
		Simulate: func(ctx context.Context, specs []harness.Spec, p *harness.Progress) ([]harness.Result, error) {
			if calls.Add(1) <= 2 {
				return nil, errors.New("transient fault")
			}
			return harness.SimulateBatch(ctx, specs, p)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	job, _, err := s.Submit(Request{Specs: []SimSpec{{Workload: "xlisp", Scale: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	job = waitJob(t, s, job.ID)
	if job.State != StateDone {
		t.Fatalf("job finished %s (%s), want done after retries", job.State, job.Error)
	}
	if job.Attempts != 3 {
		t.Errorf("attempts = %d, want 3", job.Attempts)
	}
	if got := counterValue(reg, MetricRetries); got != 2 {
		t.Errorf("retries counter = %d, want 2", got)
	}
}

// TestServiceRetriesExhausted checks the permanent-failure path: a job that
// keeps failing is failed after MaxRetries re-queues, with the cause kept.
func TestServiceRetriesExhausted(t *testing.T) {
	reg := obs.NewSharedRegistry()
	s, err := Open(Config{
		DataDir: t.TempDir(), Workers: 1, MaxRetries: 2,
		RetryBackoff: time.Millisecond, Metrics: reg,
		Simulate: func(context.Context, []harness.Spec, *harness.Progress) ([]harness.Result, error) {
			return nil, errors.New("persistent fault")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	job, _, err := s.Submit(Request{Specs: []SimSpec{{Workload: "xlisp", Scale: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	job = waitJob(t, s, job.ID)
	if job.State != StateFailed {
		t.Fatalf("job finished %s, want failed", job.State)
	}
	if job.Attempts != 3 { // initial + MaxRetries
		t.Errorf("attempts = %d, want 3", job.Attempts)
	}
	if job.Error == "" {
		t.Error("failed job lost its error")
	}
	if got := counterValue(reg, MetricFailed); got != 1 {
		t.Errorf("failed counter = %d, want 1", got)
	}
}

// TestServiceJobTimeout checks that a hanging job is bounded by the per-job
// timeout and reported as a deadline failure.
func TestServiceJobTimeout(t *testing.T) {
	s, err := Open(Config{
		DataDir: t.TempDir(), Workers: 1,
		JobTimeout: 20 * time.Millisecond,
		Simulate: func(ctx context.Context, _ []harness.Spec, _ *harness.Progress) ([]harness.Result, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	job, _, err := s.Submit(Request{Specs: []SimSpec{{Workload: "xlisp", Scale: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	job = waitJob(t, s, job.ID)
	if job.State != StateFailed {
		t.Fatalf("job finished %s, want failed on timeout", job.State)
	}
	if job.Error != context.DeadlineExceeded.Error() {
		t.Errorf("error = %q, want %q", job.Error, context.DeadlineExceeded)
	}
}

// TestServiceCancelRunning cancels mid-run through the HTTP-visible Cancel
// path: the context fires, the job settles canceled, not failed or retried.
func TestServiceCancelRunning(t *testing.T) {
	started := make(chan struct{})
	reg := obs.NewSharedRegistry()
	s, err := Open(Config{
		DataDir: t.TempDir(), Workers: 1, MaxRetries: 5,
		RetryBackoff: time.Millisecond, Metrics: reg,
		Simulate: func(ctx context.Context, _ []harness.Spec, _ *harness.Progress) ([]harness.Result, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	job, _, err := s.Submit(Request{Specs: []SimSpec{{Workload: "xlisp", Scale: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	job = waitJob(t, s, job.ID)
	if job.State != StateCanceled {
		t.Fatalf("job finished %s, want canceled", job.State)
	}
	if got := counterValue(reg, MetricCanceled); got != 1 {
		t.Errorf("canceled counter = %d, want 1", got)
	}
	// Cancelling again reports the job as finished.
	if _, err := s.Cancel(job.ID); !errors.Is(err, ErrFinished) {
		t.Errorf("second cancel err = %v, want ErrFinished", err)
	}
}

// TestServiceCancelQueued cancels a job before any worker exists.
func TestServiceCancelQueued(t *testing.T) {
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	job, _, err := s.Submit(Request{Specs: []SimSpec{{Workload: "xlisp", Scale: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	job, err = s.Cancel(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != StateCanceled {
		t.Errorf("state = %s, want canceled", job.State)
	}
}

// TestServiceRestartRecovery is the kill-and-restart acceptance property at
// the service level: jobs staged into a worker-less daemon survive a close
// and complete under a restarted one, and completed results survive too.
func TestServiceRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(Config{DataDir: dir, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	req := Request{Specs: []SimSpec{{Workload: "xlisp", Scale: 2}}}
	job, _, err := s1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, err := Open(Config{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Recovered() != 1 {
		t.Errorf("recovered = %d, want 1", s2.Recovered())
	}
	s2.Start()
	got := waitJob(t, s2, job.ID)
	if got.State != StateDone {
		t.Fatalf("recovered job finished %s (%s), want done", got.State, got.Error)
	}
	rs, err := s2.Result(job.ID)
	if err != nil || len(rs.Results) != 1 {
		t.Fatalf("recovered result: %v", err)
	}
	s2.Close()

	// Third generation: the store survives, so the same request dedups.
	s3, err := Open(Config{DataDir: dir, Workers: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	dup, deduped, err := s3.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !deduped || dup.State != StateDone {
		t.Errorf("post-restart duplicate: deduped=%v state=%s", deduped, dup.State)
	}
}

// TestServiceCloseRequeuesRunning checks graceful shutdown: a job caught
// mid-run is interrupted and left durably queued, and a later generation
// runs it to completion.
func TestServiceCloseRequeuesRunning(t *testing.T) {
	dir := t.TempDir()
	started := make(chan struct{})
	s1, err := Open(Config{
		DataDir: dir, Workers: 1,
		Simulate: func(ctx context.Context, _ []harness.Spec, _ *harness.Progress) ([]harness.Result, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.Start()
	job, _, err := s1.Submit(Request{Specs: []SimSpec{{Workload: "xlisp", Scale: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	s1.Close()

	s2, err := Open(Config{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Recovered() != 1 {
		t.Fatalf("recovered = %d, want 1", s2.Recovered())
	}
	s2.Start()
	got := waitJob(t, s2, job.ID)
	if got.State != StateDone {
		t.Errorf("interrupted job finished %s (%s), want done", got.State, got.Error)
	}
}

// TestServiceProgress checks the per-job live progress plumbing: a running
// job exposes a snapshot whose totals match its spec count.
func TestServiceProgress(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	s, err := Open(Config{
		DataDir: t.TempDir(), Workers: 1,
		Simulate: func(_ context.Context, specs []harness.Spec, p *harness.Progress) ([]harness.Result, error) {
			p.BatchStart(len(specs))
			close(started)
			<-release
			out := make([]harness.Result, len(specs))
			for i := range out {
				out[i] = harness.Result{Stats: &cpu.Stats{Cycles: 1, Retired: 1}}
			}
			return out, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	job, _, err := s.Submit(Request{Specs: []SimSpec{
		{Workload: "xlisp", Scale: 2}, {Workload: "compress", Scale: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	snap, ok := s.Progress(job.ID)
	if !ok {
		t.Fatal("running job has no progress")
	}
	if snap.SpecsTotal != 2 {
		t.Errorf("progress specs_total = %d, want 2", snap.SpecsTotal)
	}
	close(release)
	if got := waitJob(t, s, job.ID); got.State != StateDone {
		t.Fatalf("job finished %s (%s)", got.State, got.Error)
	}
	if _, ok := s.Progress(job.ID); ok {
		t.Error("finished job still reports progress")
	}
}

// TestServiceSnapshotAndMetrics sanity-checks the daemon-level snapshot and
// the published gauges.
func TestServiceSnapshotAndMetrics(t *testing.T) {
	reg := obs.NewSharedRegistry()
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 0, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	for i := 0; i < 3; i++ {
		req := Request{Name: fmt.Sprintf("job %d", i), Priority: i,
			Specs: []SimSpec{{Workload: "xlisp", Scale: 2 + i}}}
		if _, _, err := s.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	if snap.QueueDepth != 3 || snap.JobsTotal != 3 || snap.Inflight != 0 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.States[StateQueued] != 3 {
		t.Errorf("states = %v", snap.States)
	}
	r := reg.Snapshot()
	if got := r.Gauge(MetricQueueDepth).Value(); got != 3 {
		t.Errorf("queue_depth gauge = %v, want 3", got)
	}
	if got := counterValue(reg, MetricSubmitted); got != 3 {
		t.Errorf("submitted counter = %d, want 3", got)
	}
}
