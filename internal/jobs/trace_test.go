package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"valuespec/internal/harness"
	"valuespec/internal/obs"
)

// fastSimulate is a scripted executor returning one empty result per spec.
func fastSimulate(_ context.Context, specs []harness.Spec, _ *harness.Progress) ([]harness.Result, error) {
	out := make([]harness.Result, len(specs))
	for i, sp := range specs {
		out[i] = harness.Result{Spec: sp}
	}
	return out, nil
}

// spanNames projects a track's spans to their names, oldest first.
func spanNames(tr *obs.Tracer, track string) []string {
	spans := tr.Spans(track)
	names := make([]string, len(spans))
	for i, sp := range spans {
		names[i] = sp.Name
	}
	return names
}

// TestServiceSpanTimeline pins the tentpole contract: one completed job
// leaves the full submit -> queue_wait -> run -> store -> job timeline on
// its track, attributed with spec hash and attempt, and feeds the SLO
// latency histograms.
func TestServiceSpanTimeline(t *testing.T) {
	tracer := obs.NewTracer(64)
	reg := obs.NewSharedRegistry()
	s, err := Open(Config{
		DataDir: t.TempDir(), Workers: 1,
		Metrics: reg, Tracer: tracer, Simulate: fastSimulate,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	job, _, err := s.Submit(Request{Name: "traced", Specs: []SimSpec{{Workload: "xlisp", Scale: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	job = waitJob(t, s, job.ID)
	if job.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", job.State, job.Error)
	}

	got := spanNames(tracer, job.ID)
	want := []string{SpanSubmit, SpanQueueWait, SpanRun, SpanStore, SpanJob}
	if len(got) != len(want) {
		t.Fatalf("timeline = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("timeline = %v, want %v", got, want)
		}
	}

	spans := tracer.Spans(job.ID)
	for _, sp := range spans {
		if v, ok := sp.Attr("spec_hash"); sp.Name != SpanRun && sp.Name != SpanJob && (!ok || v != job.SpecHash) {
			t.Errorf("%s span spec_hash = %q/%v, want %q", sp.Name, v, ok, job.SpecHash)
		}
		if sp.End < sp.Start {
			t.Errorf("%s span ends before it starts: [%d, %d]", sp.Name, sp.Start, sp.End)
		}
	}
	run := spans[2]
	if v, _ := run.Attr("attempt"); v != "1" {
		t.Errorf("run attempt = %q, want 1", v)
	}
	if v, _ := run.Attr("specs"); v != "1" {
		t.Errorf("run specs = %q, want 1", v)
	}
	if _, ok := run.Attr("cache_hits"); !ok {
		t.Error("run span missing cache_hits")
	}
	whole := spans[4]
	if v, _ := whole.Attr("state"); v != "done" {
		t.Errorf("job span state = %q, want done", v)
	}

	snap := reg.Snapshot()
	for _, h := range []string{MetricQueueWaitMS, MetricRunMS, MetricE2EMS} {
		if got := snap.Histogram(h).Count(); got != 1 {
			t.Errorf("%s count = %d, want 1", h, got)
		}
	}
}

// TestServiceSpanDedupAndFailure covers the other terminal shapes: a dedup
// hit records a submit span flagged deduped (and no run), and a job that
// exhausts retries closes with a failed job span, an error attr on each run
// span, and the attempt-error counter.
func TestServiceSpanDedupAndFailure(t *testing.T) {
	tracer := obs.NewTracer(64)
	reg := obs.NewSharedRegistry()
	boom := errors.New("boom")
	s, err := Open(Config{
		DataDir: t.TempDir(), Workers: 1, MaxRetries: 1, RetryBackoff: time.Millisecond,
		Metrics: reg, Tracer: tracer,
		Simulate: func(ctx context.Context, specs []harness.Spec, p *harness.Progress) ([]harness.Result, error) {
			return nil, boom
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	req := Request{Name: "failing", Specs: []SimSpec{{Workload: "xlisp", Scale: 2}}}
	job, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	job = waitJob(t, s, job.ID)
	if job.State != StateFailed {
		t.Fatalf("job finished %s, want failed", job.State)
	}
	spans := tracer.Spans(job.ID)
	var runs, stores int
	for _, sp := range spans {
		switch sp.Name {
		case SpanRun:
			runs++
			if v, _ := sp.Attr("error"); v != "boom" {
				t.Errorf("run span error = %q, want boom", v)
			}
		case SpanStore:
			stores++
		case SpanJob:
			if v, _ := sp.Attr("state"); v != "failed" {
				t.Errorf("job span state = %q, want failed", v)
			}
		}
	}
	if runs != 2 || stores != 0 {
		t.Errorf("failed job recorded %d run and %d store spans, want 2 and 0", runs, stores)
	}
	if got := counterValue(reg, MetricAttemptErrors); got != 2 {
		t.Errorf("%s = %d, want 2", MetricAttemptErrors, got)
	}

	// Second tree: a dedup hit against a warm store.
	s2dir := t.TempDir()
	tracer2 := obs.NewTracer(64)
	s2, err := Open(Config{DataDir: s2dir, Workers: 1, Tracer: tracer2, Simulate: fastSimulate})
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer s2.Close()
	first, _, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, s2, first.ID)
	dup, deduped, err := s2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !deduped {
		t.Fatal("second submit not deduped")
	}
	dspans := tracer2.Spans(dup.ID)
	if len(dspans) != 1 || dspans[0].Name != SpanSubmit {
		t.Fatalf("dedup timeline = %v, want just submit", spanNames(tracer2, dup.ID))
	}
	if v, _ := dspans[0].Attr("deduped"); v != "true" {
		t.Errorf("dedup submit span deduped = %q, want true", v)
	}
}

// TestServiceTerminalRecordsWithState: the terminal transition itself
// writes the job span and, for a done job, its jobs.e2e_ms sample, so a
// reader who first sees a job terminal already finds them, whether the job
// completed, failed or was cancelled.
func TestServiceTerminalRecordsWithState(t *testing.T) {
	const n = 260
	tracer := obs.NewTracer(8 * n)
	reg := obs.NewSharedRegistry()
	s, err := Open(Config{
		DataDir: t.TempDir(), Workers: 4, Metrics: reg, Tracer: tracer,
		Simulate: func(ctx context.Context, specs []harness.Spec, p *harness.Progress) ([]harness.Result, error) {
			if specs[0].Config.MaxCycles%20 == 0 {
				return nil, errors.New("scripted failure")
			}
			return fastSimulate(ctx, specs, p)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ids := make([]string, n)
	for i := range ids {
		job, _, err := s.Submit(propRequest(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = job.ID
	}

	counts := make(map[State]int)
	read := make(chan struct{})
	go func() {
		defer close(read)
		seen := make([]bool, n)
		deadline := time.Now().Add(30 * time.Second)
		for left := n; left > 0; {
			if time.Now().After(deadline) {
				t.Errorf("%d jobs still live after 30s", left)
				return
			}
			for i, id := range ids {
				job, _ := s.Job(id)
				if seen[i] || !job.State.Terminal() {
					continue
				}
				seen[i] = true
				left--
				counts[job.State]++
				if names := spanNames(tracer, id); !slices.Contains(names, SpanJob) {
					t.Errorf("%s reads %s, but its spans are %v", id, job.State, names)
				}
				if job.State != StateDone {
					continue
				}
				if got := reg.Snapshot().Histogram(MetricE2EMS).Count(); got < uint64(counts[StateDone]) {
					t.Errorf("%s reads done as the %dth done job, but %s counts %d",
						id, counts[StateDone], MetricE2EMS, got)
				}
			}
		}
	}()
	s.Start()
	for i := n - 1; i >= 0; i -= 13 { // from the back, where jobs still wait
		if _, err := s.Cancel(ids[i]); err != nil && !errors.Is(err, ErrFinished) {
			t.Error(err)
		}
	}
	<-read
	if counts[StateDone] < 200 || counts[StateFailed] == 0 || counts[StateCanceled] == 0 {
		t.Errorf("jobs ended %v, want at least 200 done and some failed and canceled", counts)
	}
	t.Logf("jobs ended %v", counts)
}

// TestServiceTracePhases checks the opt-in per-phase breakdown: the config
// flips Phases on every harness spec, and the aggregated summary lands on
// the run span.
func TestServiceTracePhases(t *testing.T) {
	tracer := obs.NewTracer(64)
	var sawPhases bool
	s, err := Open(Config{
		DataDir: t.TempDir(), Workers: 1, Tracer: tracer, TracePhases: true,
		Simulate: func(ctx context.Context, specs []harness.Spec, p *harness.Progress) ([]harness.Result, error) {
			out := make([]harness.Result, len(specs))
			for i, sp := range specs {
				sawPhases = sp.Phases
				out[i] = harness.Result{Spec: sp, Phases: []obs.PhaseStat{
					{Name: "fetch", Total: 3 * time.Millisecond},
					{Name: "execute", Total: 7 * time.Millisecond},
				}}
			}
			return out, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()

	job, _, err := s.Submit(Request{Name: "phased", Specs: []SimSpec{{Workload: "xlisp", Scale: 2}}})
	if err != nil {
		t.Fatal(err)
	}
	job = waitJob(t, s, job.ID)
	if job.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", job.State, job.Error)
	}
	if !sawPhases {
		t.Error("TracePhases did not reach the harness specs")
	}
	var phases string
	for _, sp := range tracer.Spans(job.ID) {
		if sp.Name == SpanRun {
			phases, _ = sp.Attr("phases")
		}
	}
	if !strings.Contains(phases, "fetch=3ms") || !strings.Contains(phases, "execute=7ms") {
		t.Errorf("run span phases = %q, want fetch/execute totals", phases)
	}
}

// TestHTTPTraceEndpoint drives GET /jobs/{id}/trace end to end: the JSON
// timeline, the Chrome export, the 404 for unknown jobs, and the 501 when
// the daemon runs without tracing.
func TestHTTPTraceEndpoint(t *testing.T) {
	tracer := obs.NewTracer(64)
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 1, Tracer: tracer, Simulate: fastSimulate})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, Request{Name: "traced", Specs: []SimSpec{{Workload: "xlisp", Scale: 2}}})
	waitHTTP(t, ts, v.ID)

	// The job span lands just after the state flips; poll briefly.
	var view TraceView
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET trace = %d, want 200", resp.StatusCode)
		}
		view = TraceView{}
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(view.Spans) >= 5 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if view.Job != v.ID || view.State != StateDone {
		t.Errorf("trace view job/state = %s/%s, want %s/done", view.Job, view.State, v.ID)
	}
	if len(view.Spans) != 5 {
		t.Fatalf("trace view has %d spans, want 5: %+v", len(view.Spans), view.Spans)
	}
	if view.Spans[0].Name != SpanSubmit || view.Spans[len(view.Spans)-1].Name != SpanStore &&
		view.Spans[len(view.Spans)-1].Name != SpanJob {
		t.Errorf("unexpected span order: %+v", view.Spans)
	}
	for _, sp := range view.Spans {
		if sp.DurationMS < 0 {
			t.Errorf("span %s has negative duration %f", sp.Name, sp.DurationMS)
		}
	}

	// Chrome export.
	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	chrome, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(chrome), `"traceEvents"`) ||
		!strings.Contains(string(chrome), `"submit"`) {
		t.Errorf("chrome export missing events:\n%s", chrome)
	}

	// Unknown job.
	resp, err = http.Get(ts.URL + "/jobs/j999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace = %d, want 404", resp.StatusCode)
	}
}

// TestHTTPTraceDisabled: a tracerless service answers 501, telling clients
// tracing is off rather than pretending the job left no spans.
func TestHTTPTraceDisabled(t *testing.T) {
	s, err := Open(Config{DataDir: t.TempDir(), Workers: 1, Simulate: fastSimulate})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v, _ := postJob(t, ts, Request{Name: "untraced", Specs: []SimSpec{{Workload: "xlisp", Scale: 2}}})
	waitHTTP(t, ts, v.ID)
	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("trace with tracing off = %d, want 501", resp.StatusCode)
	}
}
