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
	// Metrics is the worker's local registry: harness progress publishes
	// into it and each heartbeat pushes its delta to the coordinator. nil
	// allocates a private one.
	Metrics *obs.SharedRegistry
	// Simulate overrides the batch executor (tests script failures and
	// hangs); nil selects harness.SimulateBatch.
	Simulate jobs.SimulateFunc
	// HTTP is the client used for all protocol calls; nil uses a client
	// with a 30s timeout, which a held /lease stays well inside.
	HTTP *http.Client
	// Logger receives worker lifecycle logs; nil discards them.
	Logger *slog.Logger
}

// Worker leases jobs from a coordinator, runs them through the simulation
// harness under the timeout and telemetry switch each lease carries, and
// streams results back. It holds no durable state: SIGKILL a worker and its
// leases lapse, the coordinator requeues, nothing is lost.
type Worker struct {
	cfg WorkerConfig

	mu   sync.Mutex
	runs map[string]*workerRun // job id -> live run
	free int
	prev *obs.Registry // registry snapshot at the previous heartbeat

	// wake pokes a full worker's lease loop when a run frees a slot; one
	// with a free slot is always in a /lease the coordinator holds.
	wake chan struct{}

	// heartbeat is the renewal cadence; cadence pokes the heartbeat loop
	// when a lease response shortens it, so the loop stops waiting out the
	// longer interval it started under.
	heartbeat time.Duration
	cadence   chan struct{}
}

// workerRun is one leased job executing locally. Its Progress publishes
// into a private registry (snapshots are absolute, so concurrent runs
// cannot share one); the snapshot rides each heartbeat for the /fleet
// view, while the worker-level counters flow through the push registry.
type workerRun struct {
	job      jobs.Job
	token    string
	exec     jobs.Executor      // the coordinator's settings, from the lease
	cancel   context.CancelFunc // set once the run starts; nil before
	progress *harness.Progress
	started  time.Time
	// reporting is set once the run has finished and its outcome is on
	// its way to the coordinator. Heartbeats still list the run, so a slow
	// upload keeps its lease, but a lost lease no longer abandons it: the
	// coordinator may have settled the job from that very report.
	reporting bool
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
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewSharedRegistry()
	}
	if cfg.HTTP == nil {
		cfg.HTTP = &http.Client{Timeout: requestTimeout}
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
		cadence:   make(chan struct{}, 1),
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
// in-flight run and returns. An empty answer is asked again at once (the
// coordinator held it); a failed /lease waits a heartbeat cadence, so the
// worker never spins against a dead coordinator. The error is ctx.Err() —
// a worker keeps retrying through coordinator outages (the whole point is
// surviving each other's restarts).
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
			select {
			case <-ctx.Done():
			case <-w.wake:
			}
			continue
		}
		leased, err := w.lease(ctx, free)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			w.cfg.Logger.Warn("lease failed", "worker", w.cfg.ID, "err", err)
			w.mu.Lock()
			retry := w.heartbeat
			w.mu.Unlock()
			select {
			case <-ctx.Done():
			case <-time.After(retry):
			}
			continue
		}
		for _, job := range leased {
			job := job
			runs.Add(1)
			go func() {
				defer runs.Done()
				w.runJob(ctx, job)
			}()
		}
	}
	runs.Wait()
	hbCancel()
	hbDone.Wait()
	return ctx.Err()
}

// lease asks the coordinator for up to free jobs.
func (w *Worker) lease(ctx context.Context, free int) ([]jobs.Job, error) {
	var resp LeaseResponse
	err := w.post(ctx, "/lease", LeaseRequest{Worker: w.cfg.ID, Capacity: free}, &resp)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	exec := jobs.Executor{Simulate: w.cfg.Simulate, JobTimeout: resp.JobTimeout, Telemetry: resp.Telemetry}
	w.mu.Lock()
	if hb := time.Duration(resp.HeartbeatMillis) * time.Millisecond; hb > 0 && hb != w.heartbeat {
		if hb < w.heartbeat {
			poke(w.cadence)
		}
		w.heartbeat = hb
	}
	for i := range resp.Jobs {
		job := resp.Jobs[i]
		w.runs[job.ID] = &workerRun{
			job:      job,
			token:    job.LeaseToken,
			exec:     exec,
			progress: harness.NewProgress(obs.NewSharedRegistry()),
			started:  now,
		}
		w.free--
	}
	w.mu.Unlock()
	return resp.Jobs, nil
}

// runJob executes one leased job and reports the outcome. The run context
// comes from the run entry, so a lost lease can cancel it.
func (w *Worker) runJob(ctx context.Context, job jobs.Job) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	w.mu.Lock()
	run := w.runs[job.ID]
	if run != nil {
		run.cancel = cancel
	}
	w.mu.Unlock()
	if run == nil {
		return
	}
	defer func() {
		w.mu.Lock()
		delete(w.runs, job.ID)
		w.free++
		w.mu.Unlock()
		poke(w.wake)
	}()
	w.cfg.Logger.Info("job leased to this worker",
		"worker", w.cfg.ID, "job", job.ID, "spec_hash", job.SpecHash, "specs", len(job.Request.Specs))

	results, _, err := run.exec.Execute(runCtx, job.Request, run.progress)
	w.mu.Lock()
	run.reporting = true
	w.mu.Unlock()
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

// poke signals ch without blocking; a signal already pending absorbs it.
func poke(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
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
		case <-w.cadence:
			// The cadence shortened: restart the wait at the new interval.
		case <-time.After(interval):
			w.beat(ctx)
		}
	}
}

// beat sends one heartbeat: held lease ids, per-job progress, and the
// registry delta since the previous beat. Lost leases cancel their runs,
// unless a run is already reporting its outcome.
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
		if run := w.runs[id]; run != nil && run.cancel != nil && !run.reporting {
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
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		err = w.post(ctx, path, body, out)
		cancel()
		if err == nil || isStale(err) {
			return err
		}
	}
	return err
}

func isStale(err error) bool { return errors.Is(err, jobs.ErrStaleLease) }
