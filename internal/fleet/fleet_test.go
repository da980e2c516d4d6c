package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"valuespec/internal/cpu"
	"valuespec/internal/harness"
	"valuespec/internal/jobs"
	"valuespec/internal/obs"
)

// testFleet is one coordinator over a real (Workers:0), tracing job
// service, mounted on an httptest server.
type testFleet struct {
	svc   *jobs.Service
	coord *Coordinator
	srv   *httptest.Server
	reg   *obs.SharedRegistry
	scale int
}

func newTestFleet(t *testing.T, ttl time.Duration) *testFleet {
	t.Helper()
	reg := obs.NewSharedRegistry()
	svc, err := jobs.Open(jobs.Config{DataDir: t.TempDir(), Workers: 0, Metrics: reg, Tracer: obs.NewTracer(0)})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{Service: svc, Metrics: reg, LeaseTTL: ttl})
	coord.Start()
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(func() {
		coord.Close() // releases held leases, so the server's Close need not wait them out
		srv.Close()
		svc.Close()
	})
	return &testFleet{svc: svc, coord: coord, srv: srv, reg: reg}
}

func (f *testFleet) submit(t *testing.T, name string, specs int) jobs.Job {
	t.Helper()
	req := jobs.Request{Name: name, Specs: make([]jobs.SimSpec, specs)}
	for i := range req.Specs {
		// Distinct scales keep each job's spec hash unique.
		req.Specs[i] = jobs.SimSpec{Workload: "compress", Scale: f.scale + i}
	}
	f.scale += specs
	job, _, err := f.svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// fakeSimulate returns deterministic stats instantly.
func fakeSimulate(ctx context.Context, specs []harness.Spec, p *harness.Progress) ([]harness.Result, error) {
	p.BatchStart(len(specs))
	out := make([]harness.Result, len(specs))
	for i := range specs {
		p.SpecStart()
		st := &cpu.Stats{Cycles: 100, Retired: 80}
		out[i] = harness.Result{Spec: specs[i], Stats: st}
		p.SpecDone(st, nil, time.Millisecond)
	}
	return out, nil
}

func newTestWorker(t *testing.T, f *testFleet, id string, sim jobs.SimulateFunc) *Worker {
	t.Helper()
	w, err := NewWorker(WorkerConfig{
		Coordinator: f.srv.URL,
		ID:          id,
		Capacity:    2,
		Simulate:    sim,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func waitState(t *testing.T, f *testFleet, id string, want jobs.State, timeout time.Duration) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if job, ok := f.svc.Job(id); ok && job.State == want {
			return job
		}
		time.Sleep(10 * time.Millisecond)
	}
	job, _ := f.svc.Job(id)
	t.Fatalf("job %s stuck in %s, want %s", id, job.State, want)
	return jobs.Job{}
}

// TestFleetEndToEnd drives two workers over a live coordinator: every job
// completes exactly once, results land in the store, and the merged
// telemetry shows fleet-wide counters.
func TestFleetEndToEnd(t *testing.T) {
	f := newTestFleet(t, 5*time.Second)
	var submitted []jobs.Job
	for i := 0; i < 6; i++ {
		submitted = append(submitted, f.submit(t, fmt.Sprintf("job%d", i), 2))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w1 := newTestWorker(t, f, "w1", fakeSimulate)
	w2 := newTestWorker(t, f, "w2", fakeSimulate)
	go w1.Run(ctx)
	go w2.Run(ctx)

	for _, job := range submitted {
		done := waitState(t, f, job.ID, jobs.StateDone, 10*time.Second)
		if done.Worker != "" || done.LeaseToken != "" {
			t.Errorf("job %s carries lease residue after done: %+v", done.ID, done)
		}
		rs, err := f.svc.Result(done.ID)
		if err != nil {
			t.Fatalf("result for %s: %v", done.ID, err)
		}
		if len(rs.Results) != 2 {
			t.Errorf("job %s stored %d results, want 2", done.ID, len(rs.Results))
		}
		for _, r := range rs.Results {
			if r.Stats == nil || r.Stats.Cycles != 100 {
				t.Errorf("job %s stored bad stats: %+v", done.ID, r.Stats)
			}
		}
	}
	cancel()

	// The workers' final heartbeat pushes the last delta; poll briefly for
	// the merged totals.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if f.reg.Snapshot().Counter(MetricWorkerJobsDone).Value() == 6 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	snap := f.reg.Snapshot()
	if c := snap.Counter(MetricWorkerJobsDone).Value(); c != 6 {
		t.Errorf("merged %s = %d, want 6", MetricWorkerJobsDone, c)
	}
	if c := snap.Counter(MetricWorkerSpecsDone).Value(); c != 12 {
		t.Errorf("merged %s = %d, want 12", MetricWorkerSpecsDone, c)
	}
	if c := snap.Counter(MetricWorkerCycles).Value(); c != 1200 {
		t.Errorf("merged %s = %d, want 1200", MetricWorkerCycles, c)
	}
	if c := snap.Counter(MetricRemoteCompletes).Value(); c != 6 {
		t.Errorf("%s = %d, want 6", MetricRemoteCompletes, c)
	}

	view := f.coord.Snapshot()
	if len(view.Workers) != 2 {
		t.Errorf("fleet view has %d workers, want 2", len(view.Workers))
	}
}

// TestFleetWorkerDeath kills a worker mid-job (its Simulate never returns
// and its heartbeats stop): the lease lapses, the coordinator requeues, a
// healthy worker finishes, and the dead worker's late complete is a 409.
func TestFleetWorkerDeath(t *testing.T) {
	f := newTestFleet(t, 300*time.Millisecond)
	job := f.submit(t, "victim", 1)

	// "Kill" a worker by leasing directly and never heartbeating.
	var lease LeaseResponse
	postJSON(t, f.srv.URL+"/lease", LeaseRequest{Worker: "dead", Capacity: 1}, &lease)
	if len(lease.Jobs) != 1 || lease.Jobs[0].ID != job.ID {
		t.Fatalf("lease got %+v", lease.Jobs)
	}
	deadToken := lease.Jobs[0].LeaseToken

	// A healthy worker picks it up after expiry.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := newTestWorker(t, f, "alive", fakeSimulate)
	go w.Run(ctx)

	done := waitState(t, f, job.ID, jobs.StateDone, 10*time.Second)
	if done.Attempts != 1 {
		t.Errorf("job finished with attempts=%d, want 1 (expiry hands the attempt back)", done.Attempts)
	}

	// The zombie reports in: stale.
	var errResp struct {
		Error string `json:"error"`
	}
	status := postJSONStatus(t, f.srv.URL+"/complete", CompleteRequest{
		Worker: "dead", Job: job.ID, Token: deadToken,
		Results: []jobs.SpecResult{{Spec: job.Request.Specs[0], Stats: &cpu.Stats{}}},
	}, &errResp)
	if status != http.StatusConflict {
		t.Errorf("zombie complete got %d, want 409 (%s)", status, errResp.Error)
	}

	snap := f.reg.Snapshot()
	if c := snap.Counter(MetricLeaseExpirations).Value(); c < 1 {
		t.Errorf("%s = %d, want >= 1", MetricLeaseExpirations, c)
	}
	if c := snap.Counter(MetricStaleCompletes).Value(); c != 1 {
		t.Errorf("%s = %d, want 1", MetricStaleCompletes, c)
	}
}

// TestFleetHeartbeatFollowsTTL: with only a short lease TTL configured, the
// heartbeat cadence derives from it and a worker that was waiting out its
// default cadence switches at its first lease, so a healthy worker holding
// jobs for several TTLs never loses a lease.
func TestFleetHeartbeatFollowsTTL(t *testing.T) {
	const ttl = time.Second
	f := newTestFleet(t, ttl)
	var submitted []jobs.Job
	for i := 0; i < 2; i++ {
		submitted = append(submitted, f.submit(t, fmt.Sprintf("long%d", i), 1))
	}
	slow := func(ctx context.Context, specs []harness.Spec, p *harness.Progress) ([]harness.Result, error) {
		select {
		case <-time.After(3 * ttl):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return fakeSimulate(ctx, specs, p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go newTestWorker(t, f, "steady", slow).Run(ctx)

	for _, job := range submitted {
		if done := waitState(t, f, job.ID, jobs.StateDone, 10*ttl); done.Attempts != 1 {
			t.Errorf("job %s took %d attempts, want 1", done.ID, done.Attempts)
		}
	}
	if c := f.reg.Snapshot().Counter(MetricLeaseExpirations).Value(); c != 0 {
		t.Errorf("%s = %d for a healthy worker, want 0", MetricLeaseExpirations, c)
	}
}

// TestFleetHeartbeatAfterExpiry: the HTTP-level twin of the queue test —
// a heartbeat arriving after expiry reports the lease as lost.
func TestFleetHeartbeatAfterExpiry(t *testing.T) {
	f := newTestFleet(t, 200*time.Millisecond)
	job := f.submit(t, "hb", 1)
	var lease LeaseResponse
	postJSON(t, f.srv.URL+"/lease", LeaseRequest{Worker: "slow", Capacity: 1}, &lease)
	if len(lease.Jobs) != 1 {
		t.Fatalf("leased %d jobs, want 1", len(lease.Jobs))
	}

	// Wait out the TTL plus a scan.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j, _ := f.svc.Job(job.ID); j.State == jobs.StateQueued {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	var hb HeartbeatResponse
	postJSON(t, f.srv.URL+"/heartbeat", HeartbeatRequest{Worker: "slow", Jobs: []string{job.ID}}, &hb)
	if len(hb.Renewed) != 0 {
		t.Errorf("renewed %v after expiry", hb.Renewed)
	}
	if len(hb.Lost) != 1 || hb.Lost[0] != job.ID {
		t.Errorf("lost %v, want [%s]", hb.Lost, job.ID)
	}
}

// TestFleetWorkerFailure routes a worker-reported failure through the
// service's retry machinery: a job that fails remotely retries and then
// fails for good once the budget is spent.
func TestFleetWorkerFailure(t *testing.T) {
	reg := obs.NewSharedRegistry()
	tracer := obs.NewTracer(0)
	svc, err := jobs.Open(jobs.Config{
		DataDir: t.TempDir(), Workers: 0, Metrics: reg, Tracer: tracer,
		MaxRetries: 1, RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{Service: svc, Metrics: reg, LeaseTTL: 5 * time.Second})
	coord.Start()
	srv := httptest.NewServer(coord.Handler())
	defer func() { coord.Close(); srv.Close(); svc.Close() }()

	req := jobs.Request{Name: "flaky", Specs: []jobs.SimSpec{{Workload: "compress"}}}
	job, _, err := svc.Submit(req)
	if err != nil {
		t.Fatal(err)
	}

	var attempts atomic.Int64
	failing := func(ctx context.Context, specs []harness.Spec, p *harness.Progress) ([]harness.Result, error) {
		attempts.Add(1)
		return nil, errors.New("scripted failure")
	}
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "flaky-w", Simulate: failing})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	deadline := time.Now().Add(10 * time.Second)
	var final jobs.Job
	for time.Now().Before(deadline) {
		if j, ok := svc.Job(job.ID); ok && j.State == jobs.StateFailed {
			final = j
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if final.State != jobs.StateFailed {
		j, _ := svc.Job(job.ID)
		t.Fatalf("job never failed for good; state %s after %d attempts", j.State, attempts.Load())
	}
	if got := attempts.Load(); got != 2 {
		t.Errorf("worker ran %d attempts, want 2 (initial + one retry)", got)
	}
	if !strings.Contains(final.Error, "scripted failure") {
		t.Errorf("final error %q lost the worker's cause", final.Error)
	}
	// Each failed attempt is a run span carrying its error and a jobs.run_ms
	// sample, as a failed local attempt is.
	var runs int
	for _, sp := range tracer.Spans(job.ID) {
		if sp.Name != jobs.SpanRun {
			continue
		}
		runs++
		if cause, _ := sp.Attr("error"); !strings.Contains(cause, "scripted failure") {
			t.Errorf("run span error = %q, want the worker's cause", cause)
		}
		if worker, _ := sp.Attr("worker"); worker != "flaky-w" {
			t.Errorf("run span worker = %q, want flaky-w", worker)
		}
		if attempt, _ := sp.Attr("attempt"); attempt != fmt.Sprint(runs) {
			t.Errorf("run span %d attempt = %q", runs, attempt)
		}
	}
	if runs != 2 {
		t.Errorf("%d run spans, want one per attempt (2)", runs)
	}
	if n := reg.Snapshot().Histogram(jobs.MetricRunMS).Count(); n != 2 {
		t.Errorf("%s count = %d, want 2", jobs.MetricRunMS, n)
	}
}

// TestFleetWorkerRunsUnderCoordinatorSettings: a worker that sets nothing
// but its coordinator, identity and executor runs each leased job under the
// coordinator's service settings, which the lease carries: a job that
// hangs fails at the service's JobTimeout, and a job that returns stores
// one telemetry snapshot per spec.
func TestFleetWorkerRunsUnderCoordinatorSettings(t *testing.T) {
	svc, err := jobs.Open(jobs.Config{
		DataDir: t.TempDir(), Workers: 0, MaxRetries: 0,
		JobTimeout: 100 * time.Millisecond, Telemetry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{Service: svc, LeaseTTL: 5 * time.Second})
	coord.Start()
	srv := httptest.NewServer(coord.Handler())
	defer func() { coord.Close(); srv.Close(); svc.Close() }()

	// A job of scale 1 runs until its context ends; any other returns.
	simulate := func(ctx context.Context, specs []harness.Spec, p *harness.Progress) ([]harness.Result, error) {
		if specs[0].Scale == 1 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return fakeSimulate(ctx, specs, p)
	}
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "bare", Simulate: simulate})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()

	hang, _, err := svc.Submit(jobs.Request{Name: "hang", Specs: []jobs.SimSpec{{Workload: "compress", Scale: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	quick, _, err := svc.Submit(jobs.Request{Name: "quick", Specs: []jobs.SimSpec{
		{Workload: "compress", Scale: 2}, {Workload: "xlisp", Scale: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	f := &testFleet{svc: svc}
	if failed := waitState(t, f, hang.ID, jobs.StateFailed, 5*time.Second); !strings.Contains(failed.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("hung job failed with %q, want the coordinator's deadline", failed.Error)
	}
	waitState(t, f, quick.ID, jobs.StateDone, 5*time.Second)
	rs, err := svc.Result(quick.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs.Results {
		if r.Telemetry == nil {
			t.Errorf("result %d of a fleet run carries no telemetry snapshot", i)
		}
	}
}

// TestFleetViewProgress: heartbeats carry per-job progress and the /fleet
// snapshot serves it.
func TestFleetViewProgress(t *testing.T) {
	f := newTestFleet(t, 5*time.Second)
	job := f.submit(t, "view", 1)
	var lease LeaseResponse
	postJSON(t, f.srv.URL+"/lease", LeaseRequest{Worker: "viewer", Capacity: 1}, &lease)

	var hb HeartbeatResponse
	postJSON(t, f.srv.URL+"/heartbeat", HeartbeatRequest{
		Worker: "viewer",
		Jobs:   []string{job.ID},
		Progress: []JobProgress{{
			Job:      job.ID,
			Snapshot: harness.ProgressSnapshot{SpecsTotal: 1, SpecsInFlight: 1},
		}},
	}, &hb)
	if len(hb.Renewed) != 1 {
		t.Fatalf("renewed %v", hb.Renewed)
	}

	resp, err := http.Get(f.srv.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view FleetSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if view.Leased != 1 {
		t.Errorf("fleet snapshot leased = %d, want 1", view.Leased)
	}
	if len(view.Workers) != 1 || view.Workers[0].ID != "viewer" || !view.Workers[0].Live {
		t.Fatalf("workers = %+v", view.Workers)
	}
	wv := view.Workers[0]
	if len(wv.Leased) != 1 || wv.Leased[0] != job.ID {
		t.Errorf("worker leased = %v", wv.Leased)
	}
	if len(wv.Progress) != 1 || wv.Progress[0].Snapshot.SpecsTotal != 1 {
		t.Errorf("worker progress = %+v", wv.Progress)
	}
}

// TestFleetRunSpan: a job a fleet worker completed has the timeline a local
// job has — submit, queue_wait, run, store, job — and its run span lasts at
// least the run the worker timed.
func TestFleetRunSpan(t *testing.T) {
	f := newTestFleet(t, 5*time.Second)
	const runFor = 50 * time.Millisecond
	slow := func(ctx context.Context, specs []harness.Spec, p *harness.Progress) ([]harness.Result, error) {
		time.Sleep(runFor)
		return fakeSimulate(ctx, specs, p)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go newTestWorker(t, f, "spanner", slow).Run(ctx)
	job := waitState(t, f, f.submit(t, "spans", 1).ID, jobs.StateDone, 10*time.Second)

	rec := httptest.NewRecorder()
	f.svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+job.ID+"/trace", nil))
	var view jobs.TraceView
	if err := json.NewDecoder(rec.Body).Decode(&view); err != nil {
		t.Fatalf("decoding trace (HTTP %d): %v", rec.Code, err)
	}
	got := map[string]jobs.SpanView{}
	for _, sp := range view.Spans {
		got[sp.Name] = sp
	}
	for _, name := range []string{jobs.SpanSubmit, jobs.SpanQueueWait, jobs.SpanRun, jobs.SpanStore, jobs.SpanJob} {
		if _, ok := got[name]; !ok {
			t.Errorf("trace of %s lacks a %q span: %+v", job.ID, name, view.Spans)
		}
	}
	run := got[jobs.SpanRun]
	if d := time.Duration(run.DurationMS * float64(time.Millisecond)); d < runFor {
		t.Errorf("run span lasts %v, want at least the worker's %v", d, runFor)
	}
	if run.Attrs["worker"] != "spanner" || run.Attrs["attempt"] != "1" {
		t.Errorf("run span attrs = %v, want worker spanner, attempt 1", run.Attrs)
	}
}

// TestFleetIdleWorkerStartsAtOnce: an idle worker, configured by default,
// waits in a /lease the coordinator holds, so each job submitted to an idle
// fleet starts within a round trip: eight submissions spread over 500 ms
// each wait under 100 ms in the queue.
func TestFleetIdleWorkerStartsAtOnce(t *testing.T) {
	f := newTestFleet(t, 5*time.Second)
	w, err := NewWorker(WorkerConfig{Coordinator: f.srv.URL, ID: "idle", Simulate: fakeSimulate})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w.Run(ctx)

	began := time.Now()
	var submitted []jobs.Job
	for i, at := range []time.Duration{0, 45, 110, 160, 240, 310, 390, 480} {
		time.Sleep(time.Until(began.Add(at * time.Millisecond)))
		submitted = append(submitted, f.submit(t, fmt.Sprintf("idle%d", i), 1))
	}
	var waits []time.Duration
	for _, job := range submitted {
		done := waitState(t, f, job.ID, jobs.StateDone, 10*time.Second)
		wait := done.StartedAt.Sub(done.SubmittedAt)
		waits = append(waits, wait.Round(time.Millisecond))
		if wait >= 100*time.Millisecond {
			t.Errorf("job %s waited %v in the queue of an idle fleet, want under 100ms", done.ID, wait)
		}
	}
	t.Logf("queue waits: %v", waits)
}

// TestFleetWorkerBacksOffFailedLease: a worker whose coordinator refuses
// every /lease waits one heartbeat cadence (2 s before its first lease
// says otherwise) between attempts instead of spinning.
func TestFleetWorkerBacksOffFailedLease(t *testing.T) {
	var leases atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		leases.Add(1)
		httpError(w, http.StatusServiceUnavailable, errors.New("coordinator unavailable"))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	w, err := NewWorker(WorkerConfig{Coordinator: srv.URL, ID: "patient", Simulate: fakeSimulate})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	w.Run(ctx)
	if n := leases.Load(); n < 1 || n > 2 {
		t.Errorf("worker made %d lease calls in 2s against a refusing coordinator, want 1 or 2", n)
	}
}

// TestFleetCloseReleasesHeldLease: Close answers an empty /lease the
// coordinator is holding at once, and refuses the next one with 503.
func TestFleetCloseReleasesHeldLease(t *testing.T) {
	f := newTestFleet(t, DefaultLeaseTTL) // holds an empty /lease for 2s
	type answer struct {
		status int
		at     time.Time
	}
	answered := make(chan answer, 1)
	go func() {
		resp, err := http.Post(f.srv.URL+"/lease", "application/json",
			strings.NewReader(`{"worker": "parked", "capacity": 1}`))
		if err != nil {
			t.Error(err)
			answered <- answer{}
			return
		}
		resp.Body.Close()
		answered <- answer{resp.StatusCode, time.Now()}
	}()
	// The worker is marked seen before its request is held.
	for deadline := time.Now().Add(5 * time.Second); len(f.coord.Snapshot().Workers) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the /lease never reached the coordinator")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case a := <-answered:
		t.Fatalf("an empty /lease was answered (HTTP %d) before Close, want it held", a.status)
	default:
	}
	closed := time.Now()
	f.coord.Close()
	select {
	case a := <-answered:
		if a.status != http.StatusOK {
			t.Errorf("released /lease answered HTTP %d, want 200", a.status)
		}
		if d := a.at.Sub(closed); d > 100*time.Millisecond {
			t.Errorf("Close released the held /lease after %v, want within 100ms", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the held /lease")
	}
	if status := postJSONStatus(t, f.srv.URL+"/lease", LeaseRequest{Worker: "late", Capacity: 1}, nil); status != http.StatusServiceUnavailable {
		t.Errorf("/lease after Close answered HTTP %d, want 503", status)
	}
}

func postJSON(t *testing.T, url string, body, out any) {
	t.Helper()
	if status := postJSONStatus(t, url, body, out); status/100 != 2 {
		t.Fatalf("POST %s: status %d", url, status)
	}
}

func postJSONStatus(t *testing.T, url string, body, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		_ = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode
}

// syncBuffer is a bytes.Buffer safe for a logger and a test to share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// TestFleetBeatDuringCompleteKeepsRun holds the worker's /complete after
// the real coordinator has settled the job and, before the response goes
// back, sends a heartbeat that still lists the run. The coordinator
// answers it under Lost, since the job is settled; the worker must not
// take that as a lost lease of a run that has already finished.
func TestFleetBeatDuringCompleteKeepsRun(t *testing.T) {
	reg := obs.NewSharedRegistry()
	svc, err := jobs.Open(jobs.Config{DataDir: t.TempDir(), Workers: 0, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(CoordinatorConfig{Service: svc, Metrics: reg, LeaseTTL: 5 * time.Second})
	coord.Start()
	settled, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	h := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/complete" {
			h.ServeHTTP(rw, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		once.Do(func() { close(settled) })
		<-release
		for k, v := range rec.Header() {
			rw.Header()[k] = v
		}
		rw.WriteHeader(rec.Code)
		rw.Write(rec.Body.Bytes())
	}))
	defer func() { coord.Close(); srv.Close(); svc.Close() }()

	var logs syncBuffer
	wreg := obs.NewSharedRegistry()
	w, err := NewWorker(WorkerConfig{
		Coordinator: srv.URL, ID: "w", Simulate: fakeSimulate, Metrics: wreg,
		Logger: slog.New(slog.NewTextHandler(&logs, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()

	job, _, err := svc.Submit(jobs.Request{Name: "race", Specs: []jobs.SimSpec{{Workload: "compress"}}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-settled:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker never reported the job")
	}
	if j, _ := svc.Job(job.ID); j.State != jobs.StateDone {
		t.Fatalf("job %s after the coordinator settled it, want done", j.State)
	}
	w.beat(context.Background())
	close(release)

	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(logs.String(), "job completed") {
		if time.Now().After(deadline) {
			t.Fatalf("the worker never logged its completion:\n%s", logs.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if strings.Contains(logs.String(), "lease lost") {
		t.Errorf("a heartbeat during /complete abandoned the finished run:\n%s", logs.String())
	}
	var doneJobs int
	for _, j := range svc.Jobs() {
		if j.State == jobs.StateDone {
			doneJobs++
		}
	}
	if n := wreg.Snapshot().Counter(MetricWorkerJobsDone).Value(); doneJobs != 1 || n != 1 {
		t.Errorf("%d jobs done, %s = %d; want 1 and 1", doneJobs, MetricWorkerJobsDone, n)
	}
}
