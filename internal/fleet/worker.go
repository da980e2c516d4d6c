package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"

	"valuespec/internal/cpu"
	"valuespec/internal/harness"
	"valuespec/internal/jobs"
	"valuespec/internal/obs"
)

// WorkerConfig configures a fleet worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (e.g.
	// "http://127.0.0.1:9090"); the worker POSTs to Coordinator+"/lease"
	// and friends. Required.
	Coordinator string
	// ID names this worker in leases and the /fleet view; empty derives
	// "host-pid".
	ID string
	// Capacity is how many jobs run concurrently; <= 0 means 1.
	Capacity int
	// Poll is how long to sleep after an empty lease before asking again;
	// <= 0 means 500ms. Heartbeat cadence comes from the coordinator.
	Poll time.Duration
	// JobTimeout bounds one job execution; 0 means no bound. A job whose
	// request carries TimeoutSeconds > 0 uses that instead.
	JobTimeout time.Duration
	// Telemetry and TelemetryInterval mirror jobs.Config: when the
	// coordinator stores telemetry, its workers must sample it too.
	Telemetry         bool
	TelemetryInterval int64
	// Metrics is the worker's local registry: harness progress publishes
	// into it and each heartbeat pushes its delta to the coordinator. nil
	// allocates a private one.
	Metrics *obs.SharedRegistry
	// Simulate overrides the batch executor (tests script failures and
	// hangs); nil selects harness.SimulateBatch.
	Simulate jobs.SimulateFunc
	// HTTP is the client used for all protocol calls; nil uses a client
	// with a 30s timeout.
	HTTP *http.Client
	// Logger receives worker lifecycle logs; nil discards them.
	Logger *slog.Logger
}

// Worker leases jobs from a coordinator, runs them through the simulation
// harness, and streams results back. It holds no durable state: SIGKILL a
// worker and its leases lapse, the coordinator requeues, nothing is lost.
type Worker struct {
	cfg WorkerConfig

	mu   sync.Mutex
	runs map[string]*workerRun // job id -> live run
	free int
	prev *obs.Registry // registry snapshot at the previous heartbeat

	// wake pokes the lease loop the moment a run frees a slot, so drain
	// throughput is bounded by lease round-trips, not the idle poll period.
	wake chan struct{}

	heartbeat time.Duration
}

// workerRun is one leased job executing locally. Its Progress publishes
// into a private registry (snapshots are absolute, so concurrent runs
// cannot share one); the snapshot rides each heartbeat for the /fleet
// view, while the worker-level counters flow through the push registry.
type workerRun struct {
	job      jobs.Job
	token    string
	cancel   context.CancelFunc // set once the run starts; nil before
	progress *harness.Progress
	started  time.Time
}

// NewWorker builds a worker; Run drives it.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, errors.New("fleet: WorkerConfig.Coordinator is required")
	}
	if cfg.ID == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 500 * time.Millisecond
	}
	if cfg.Simulate == nil {
		cfg.Simulate = harness.SimulateBatch
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewSharedRegistry()
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	w := &Worker{
		cfg:       cfg,
		runs:      make(map[string]*workerRun),
		free:      cfg.Capacity,
		wake:      make(chan struct{}, 1),
		heartbeat: DefaultHeartbeat,
	}
	cfg.Metrics.Do(func(r *obs.Registry) {
		r.Counter(MetricWorkerJobsDone)
		r.Counter(MetricWorkerJobsFailed)
		r.Counter(MetricWorkerSpecsDone)
		r.Histogram(MetricWorkerRunMS)
	})
	return w, nil
}

// ID returns the worker's fleet identity.
func (w *Worker) ID() string { return w.cfg.ID }

// Run leases and executes jobs until ctx is cancelled, then cancels every
// in-flight run and returns. The error is ctx.Err() — a worker has no
// terminal failure of its own; it just keeps polling through coordinator
// outages (the whole point is surviving each other's restarts).
func (w *Worker) Run(ctx context.Context) error {
	hbCtx, hbCancel := context.WithCancel(ctx)
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		w.heartbeatLoop(hbCtx)
	}()
	var runs sync.WaitGroup
	for ctx.Err() == nil {
		w.mu.Lock()
		free := w.free
		w.mu.Unlock()
		if free <= 0 {
			w.idle(ctx)
			continue
		}
		leased, err := w.lease(ctx, free)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			w.cfg.Logger.Warn("lease failed", "worker", w.cfg.ID, "err", err)
		}
		for _, job := range leased {
			job := job
			runs.Add(1)
			go func() {
				defer runs.Done()
				w.runJob(ctx, job)
			}()
		}
		if len(leased) == 0 {
			w.idle(ctx)
		}
	}
	runs.Wait()
	hbCancel()
	hbDone.Wait()
	return ctx.Err()
}

// idle waits for the poll period, a freed slot, or cancellation — whichever
// comes first.
func (w *Worker) idle(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-w.wake:
	case <-time.After(w.cfg.Poll):
	}
}

// lease asks the coordinator for up to free jobs.
func (w *Worker) lease(ctx context.Context, free int) ([]jobs.Job, error) {
	var resp LeaseResponse
	err := w.post(ctx, "/lease", LeaseRequest{Worker: w.cfg.ID, Capacity: free}, &resp)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	w.mu.Lock()
	if resp.HeartbeatMillis > 0 {
		w.heartbeat = time.Duration(resp.HeartbeatMillis) * time.Millisecond
	}
	for i := range resp.Jobs {
		job := resp.Jobs[i]
		w.runs[job.ID] = &workerRun{
			job:      job,
			token:    job.LeaseToken,
			progress: harness.NewProgress(obs.NewSharedRegistry()),
			started:  now,
		}
		w.free--
	}
	w.mu.Unlock()
	return resp.Jobs, nil
}

// runJob executes one leased job and reports the outcome. The run context
// comes from the run entry (so a lost lease can cancel it), bounded by the
// job's timeout.
func (w *Worker) runJob(ctx context.Context, job jobs.Job) {
	timeout := w.cfg.JobTimeout
	if job.Request.TimeoutSeconds > 0 {
		timeout = time.Duration(job.Request.TimeoutSeconds) * time.Second
	}
	runCtx, cancel := context.WithCancel(ctx)
	if timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()

	w.mu.Lock()
	run := w.runs[job.ID]
	if run != nil {
		run.cancel = cancel
	}
	w.mu.Unlock()
	if run == nil {
		cancel()
		return
	}
	defer func() {
		w.mu.Lock()
		delete(w.runs, job.ID)
		w.free++
		w.mu.Unlock()
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}()
	w.cfg.Logger.Info("job leased to this worker",
		"worker", w.cfg.ID, "job", job.ID, "spec_hash", job.SpecHash, "specs", len(job.Request.Specs))

	results, err := w.execute(runCtx, job, run.progress)
	elapsed := time.Since(run.started).Milliseconds()
	w.cfg.Metrics.Observe(MetricWorkerRunMS, elapsed)

	if err != nil {
		// A cancelled parent context means the worker is shutting down: say
		// nothing and let the lease lapse — the coordinator requeues.
		if ctx.Err() != nil {
			return
		}
		w.cfg.Metrics.Add(MetricWorkerJobsFailed, 1)
		w.reportFail(job, run.token, err, elapsed)
		return
	}
	w.cfg.Metrics.Add(MetricWorkerJobsDone, 1)
	w.cfg.Metrics.Add(MetricWorkerSpecsDone, int64(len(results)))
	var cycles int64
	for _, r := range results {
		if r.Stats != nil {
			cycles += r.Stats.Cycles
		}
	}
	w.cfg.Metrics.Add(MetricWorkerCycles, cycles)
	w.reportComplete(job, run.token, results, elapsed)
}

// execute mirrors the coordinator's in-process executor so results are
// byte-identical wherever a job runs: same spec conversion, same telemetry
// attachment, same result packaging.
func (w *Worker) execute(ctx context.Context, job jobs.Job, progress *harness.Progress) ([]jobs.SpecResult, error) {
	specs, err := job.Request.HarnessSpecs()
	if err != nil {
		return nil, err
	}
	if w.cfg.Telemetry {
		interval := w.cfg.TelemetryInterval
		if interval <= 0 {
			interval = jobs.DefaultTelemetryInterval
		}
		for i := range specs {
			specs[i].Telemetry = cpu.NewTelemetry(interval, jobs.TelemetrySeriesCap)
		}
	}
	results, err := w.cfg.Simulate(ctx, specs, progress)
	progress.Finish()
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	if len(results) != len(job.Request.Specs) {
		return nil, fmt.Errorf("fleet: executor returned %d results for %d specs", len(results), len(job.Request.Specs))
	}
	out := make([]jobs.SpecResult, len(results))
	for i, r := range results {
		out[i] = jobs.SpecResult{Spec: job.Request.Specs[i], Stats: r.Stats}
		if tl := specs[i].Telemetry; tl != nil && r.Stats != nil {
			out[i].Telemetry = tl.Snapshot()
		}
	}
	return out, nil
}

// reportComplete POSTs the results; a 409 means the lease rotated away
// while we ran (we are the zombie) and the results are simply dropped —
// deterministic simulation means whoever holds the lease now produces the
// same bytes.
func (w *Worker) reportComplete(job jobs.Job, token string, results []jobs.SpecResult, runMS int64) {
	req := CompleteRequest{Worker: w.cfg.ID, Job: job.ID, Token: token, Results: results, RunMillis: runMS}
	var done jobs.Job
	// The lease may expire while a long result uploads or the coordinator
	// restarts; retry briefly, then let the lease machinery recover.
	err := w.postRetry("/complete", req, &done)
	switch {
	case err == nil:
		w.cfg.Logger.Info("job completed",
			"worker", w.cfg.ID, "job", job.ID, "spec_hash", job.SpecHash, "run_ms", runMS)
	case isStale(err):
		w.cfg.Logger.Warn("completion rejected: lease rotated away",
			"worker", w.cfg.ID, "job", job.ID, "err", err)
	default:
		w.cfg.Logger.Error("completion lost",
			"worker", w.cfg.ID, "job", job.ID, "err", err)
	}
}

// reportFail POSTs a failed attempt.
func (w *Worker) reportFail(job jobs.Job, token string, cause error, runMS int64) {
	req := FailRequest{Worker: w.cfg.ID, Job: job.ID, Token: token, Error: cause.Error(), RunMillis: runMS}
	var settled jobs.Job
	err := w.postRetry("/fail", req, &settled)
	switch {
	case err == nil:
		w.cfg.Logger.Warn("job attempt failed",
			"worker", w.cfg.ID, "job", job.ID, "err", cause)
	case isStale(err):
		w.cfg.Logger.Warn("failure report rejected: lease rotated away",
			"worker", w.cfg.ID, "job", job.ID, "err", err)
	default:
		w.cfg.Logger.Error("failure report lost",
			"worker", w.cfg.ID, "job", job.ID, "err", err)
	}
}

// heartbeatLoop renews leases at the coordinator's cadence and pushes the
// registry delta. It keeps beating through errors: the coordinator may be
// mid-restart, and the lease TTL absorbs several missed beats.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	for {
		w.mu.Lock()
		interval := w.heartbeat
		w.mu.Unlock()
		select {
		case <-ctx.Done():
			// One final beat pushes the last delta (jobs_done counters from
			// runs that just finished) before the worker exits.
			w.beat(context.Background())
			return
		case <-time.After(interval):
			w.beat(ctx)
		}
	}
}

// beat sends one heartbeat: held lease ids, per-job progress, and the
// registry delta since the previous beat. Lost leases cancel their runs.
func (w *Worker) beat(ctx context.Context) {
	// Mirror the process-wide trace cache into the push registry as
	// absolute totals; Diff then carries only the movement, and the
	// coordinator's merged exposition sums hit/miss across the fleet.
	cache := harness.DefaultTraceCache()
	w.cfg.Metrics.SetCounter("trace_cache.hits", cache.Hits())
	w.cfg.Metrics.SetCounter("trace_cache.misses", cache.Misses())

	w.mu.Lock()
	ids := make([]string, 0, len(w.runs))
	var progress []JobProgress
	for id, run := range w.runs {
		ids = append(ids, id)
		progress = append(progress, JobProgress{Job: id, Snapshot: run.progress.Snapshot()})
	}
	cur := w.cfg.Metrics.Snapshot()
	delta := obs.Diff(cur, w.prev)
	w.mu.Unlock()

	req := HeartbeatRequest{Worker: w.cfg.ID, Jobs: ids, Delta: delta, Progress: progress}
	var resp HeartbeatResponse
	if err := w.post(ctx, "/heartbeat", req, &resp); err != nil {
		if ctx.Err() == nil {
			w.cfg.Logger.Warn("heartbeat failed", "worker", w.cfg.ID, "err", err)
		}
		return
	}
	// Only after the delta landed does it become the new baseline; a failed
	// beat's movement rides the next one.
	w.mu.Lock()
	w.prev = cur
	for _, id := range resp.Lost {
		if run := w.runs[id]; run != nil && run.cancel != nil {
			w.cfg.Logger.Warn("lease lost, abandoning run", "worker", w.cfg.ID, "job", id)
			run.cancel()
		}
	}
	w.mu.Unlock()
}

// post sends one JSON request to the coordinator and decodes the response
// into out (unless nil). Non-2xx decodes the error envelope; 409 maps to
// jobs.ErrStaleLease so callers can fence-check with errors.Is.
func (w *Worker) post(ctx context.Context, path string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var eb errorBody
		msg := resp.Status
		if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		if resp.StatusCode == http.StatusConflict {
			return fmt.Errorf("%w: %s", jobs.ErrStaleLease, msg)
		}
		return fmt.Errorf("fleet: %s %s: %s", path, resp.Status, msg)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// postRetry retries transient failures a few times (coordinator restart,
// connection refused); stale-lease rejections are final.
func (w *Worker) postRetry(path string, body, out any) error {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 200 * time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = w.post(ctx, path, body, out)
		cancel()
		if err == nil || isStale(err) {
			return err
		}
	}
	return err
}

func isStale(err error) bool { return errors.Is(err, jobs.ErrStaleLease) }
