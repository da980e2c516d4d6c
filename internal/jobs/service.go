package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"valuespec/internal/cpu"
	"valuespec/internal/harness"
	"valuespec/internal/obs"
)

// Metric names the service publishes into its SharedRegistry; the obsweb
// /metrics endpoint exposes them with the usual valuespec_ prefix.
const (
	MetricSubmitted    = "jobs.submitted"     // counter: jobs accepted (dedup hits included)
	MetricDedup        = "jobs.dedup_hits"    // counter: submissions answered from the result store
	MetricCompleted    = "jobs.completed"     // counter: jobs that finished successfully
	MetricFailed       = "jobs.failed"        // counter: jobs that exhausted their retries
	MetricCanceled     = "jobs.canceled"      // counter: jobs cancelled by a client
	MetricRetries      = "jobs.retries"       // counter: re-queues after a transient failure
	MetricQueueDepth   = "jobs.queue_depth"   // gauge: jobs waiting for a worker
	MetricInflight     = "jobs.inflight"      // gauge: jobs executing right now
	MetricStoreEntries = "jobs.store_entries" // gauge: result sets in the store
	MetricStoreBytes   = "jobs.store_bytes"   // gauge: on-disk bytes of the store

	// SLO metrics: the latency distributions a soak harness gates on.
	MetricQueueWaitMS   = "jobs.queue_wait_ms"  // histogram: submit -> first lease, ms
	MetricRunMS         = "jobs.run_ms"         // histogram: one execution attempt, ms
	MetricE2EMS         = "jobs.e2e_ms"         // histogram: submit -> done, ms
	MetricAttemptErrors = "jobs.attempt_errors" // counter: execution attempts that errored
)

// Span names the service emits on each job's track (the job ID). Together
// they form the submit -> store timeline served by GET /jobs/{id}/trace.
const (
	SpanSubmit    = "submit"     // HTTP submit: validate, hash, durably enqueue
	SpanQueueWait = "queue_wait" // waiting for a worker (first attempt only)
	SpanRun       = "run"        // one execution attempt over the worker pool
	SpanStore     = "store"      // persisting the result set
	SpanJob       = "job"        // the whole lifecycle, submit -> terminal
)

// SimulateFunc runs one batch; the default is harness.SimulateBatch. Tests
// substitute it to script failures, hangs and timings.
type SimulateFunc func(ctx context.Context, specs []harness.Spec, progress *harness.Progress) ([]harness.Result, error)

// Config configures a Service.
type Config struct {
	// DataDir roots the durable state: jobs under <DataDir>/jobs, results
	// under <DataDir>/results.
	DataDir string
	// Workers is the number of jobs executed concurrently; each job's specs
	// additionally fan out over harness.SimulateBatch's GOMAXPROCS pool. 0
	// accepts and serves jobs without executing any (useful to stage work
	// for a later daemon, and in tests).
	Workers int
	// JobTimeout bounds one execution attempt, in process or on a fleet
	// worker (each lease carries it); 0 means no bound. A request with
	// TimeoutSeconds > 0 overrides it for that job.
	JobTimeout time.Duration
	// MaxRetries is how many times a failed attempt is re-queued before the
	// job fails for good.
	MaxRetries int
	// RetryBackoff delays the first retry, doubling per attempt; 0 selects
	// DefaultRetryBackoff.
	RetryBackoff time.Duration
	// Metrics, when non-nil, receives the jobs.* counters and gauges.
	Metrics *obs.SharedRegistry
	// Tracer, when non-nil, records one span per lifecycle stage of every
	// job (track = job ID): submit, queue_wait, run, store, job. nil keeps
	// the service span-free at zero cost.
	Tracer *obs.Tracer
	// Logger receives structured job-lifecycle logs with job/spec_hash
	// attributes; nil discards them.
	Logger *slog.Logger
	// TracePhases turns on the per-pipeline-stage wall-time breakdown for
	// every executed spec and attaches it to the run span. It costs several
	// clock reads per simulated cycle, so it is opt-in.
	TracePhases bool
	// Telemetry attaches the per-spec pipeline instrument (cpu.Telemetry) to
	// every executed spec, in process or on a fleet worker (each lease
	// carries it), and stores the compact snapshot — per-interval pipeline
	// series plus the speculation-outcome breakdown — alongside each result.
	// Telemetry does not participate in the request hash, so a deduped
	// submission may be served a stored result recorded without it.
	Telemetry bool
	// Simulate overrides the batch executor; nil selects
	// harness.SimulateBatch.
	Simulate SimulateFunc
}

// DefaultRetryBackoff is the first-retry delay when Config leaves it zero.
const DefaultRetryBackoff = 500 * time.Millisecond

// TelemetryInterval is the sampling interval (simulated cycles) when
// Config.Telemetry is on, and TelemetrySeriesCap bounds each stored series:
// capacity is fixed, so long runs decimate to coarser strides instead of
// growing the stored result.
const (
	TelemetryInterval  = 1024
	TelemetrySeriesCap = 512
)

// ErrFinished is returned by Cancel for jobs already in a terminal state.
var ErrFinished = errors.New("jobs: job already finished")

// Service glues the queue, the store and the workers together. Open it,
// Start it, submit Requests (directly or over HTTP via Handler), Close it.
type Service struct {
	cfg   Config
	exec  Executor
	queue *Queue
	store *Store

	mu      sync.Mutex
	running map[string]*runningJob
	timers  map[string]*time.Timer // parked retries, by job id
	closing bool

	wg sync.WaitGroup
}

// runningJob is the volatile side of an in-process run.
type runningJob struct {
	cancel   context.CancelFunc
	progress *harness.Progress
}

// Open opens the durable state under cfg.DataDir and recovers interrupted
// jobs into the queue; call Start to begin executing.
func Open(cfg Config) (*Service, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("jobs: Config.DataDir is required")
	}
	if cfg.Workers < 0 {
		cfg.Workers = 0
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	queue, err := OpenQueue(cfg.DataDir + "/jobs")
	if err != nil {
		return nil, err
	}
	store, err := OpenStore(cfg.DataDir+"/results", cfg.Logger)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg: cfg,
		exec: Executor{
			Simulate:   cfg.Simulate,
			JobTimeout: cfg.JobTimeout,
			Phases:     cfg.TracePhases,
			Telemetry:  cfg.Telemetry,
		},
		queue:   queue,
		store:   store,
		running: make(map[string]*runningJob),
		timers:  make(map[string]*time.Timer),
	}
	queue.onTerminal = s.terminal
	s.publish()
	return s, nil
}

// terminal records a job's end as it enters a terminal state: the state's
// counter, the whole-lifecycle job span and, for a done job, its end-to-end
// latency. The queue calls it under its lock, as part of the transition, so
// a reader who sees the terminal state also sees all three.
func (s *Service) terminal(job Job) {
	switch job.State {
	case StateDone:
		s.count(MetricCompleted, 1)
		s.observe(MetricE2EMS, job.FinishedAt.Sub(job.SubmittedAt).Milliseconds())
	case StateFailed:
		s.count(MetricFailed, 1)
	case StateCanceled:
		s.count(MetricCanceled, 1)
	}
	s.cfg.Tracer.Emit(job.ID, SpanJob, job.SubmittedAt, job.FinishedAt,
		obs.SpanAttr{Key: "spec_hash", Value: job.SpecHash},
		obs.SpanAttr{Key: "state", Value: string(job.State)},
		obs.SpanAttr{Key: "attempts", Value: fmt.Sprint(job.Attempts)})
}

// Start launches the worker pool. Each worker leases one job at a time
// under a lease that never expires, and settles it through the same
// token-fenced calls a fleet worker's /complete and /fail reach. Under a
// context that never ends, Lease returns no job only once the queue closes;
// a job whose grant record failed to commit still runs, as after a crash.
func (s *Service) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				leased, _ := s.queue.Lease(context.Background(), "", 1, 0)
				if len(leased) == 0 {
					return
				}
				s.runJob(leased[0])
			}
		}()
	}
}

// Close stops the service: no new submissions, running jobs are interrupted
// and keep their leases on disk (a later Open requeues them, attempt counts
// kept), parked retries stay queued on disk, and the workers drain.
func (s *Service) Close() {
	s.mu.Lock()
	s.closing = true
	for _, r := range s.running {
		r.cancel()
	}
	for id, t := range s.timers {
		t.Stop()
		delete(s.timers, id)
	}
	s.mu.Unlock()
	s.queue.Close()
	s.wg.Wait()
}

// Recovered returns how many jobs the open re-queued after a restart.
func (s *Service) Recovered() int { return s.queue.Recovered() }

// Store exposes the result store (read-mostly: the smoke tooling inspects
// its size).
func (s *Service) Store() *Store { return s.store }

// Tracer exposes the service's span recorder (nil when tracing is off); the
// HTTP trace endpoints read through it.
func (s *Service) Tracer() *obs.Tracer { return s.cfg.Tracer }

// Submit validates and durably enqueues req. When the result store already
// holds the request's canonical hash, the job is answered immediately
// without simulating: it is born done with Deduped set, and the second
// return is true.
func (s *Service) Submit(req Request) (Job, bool, error) {
	began := time.Now()
	if err := req.Validate(); err != nil {
		return Job{}, false, err
	}
	hash, err := req.Hash()
	if err != nil {
		return Job{}, false, err
	}
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing {
		return Job{}, false, errors.New("jobs: service is shutting down")
	}
	if s.store.Has(hash) {
		job, err := s.queue.SubmitCompleted(req, hash)
		if err != nil {
			return Job{}, false, err
		}
		s.count(MetricSubmitted, 1)
		s.count(MetricDedup, 1)
		s.publish()
		s.cfg.Tracer.Emit(job.ID, SpanSubmit, began, time.Now(),
			obs.SpanAttr{Key: "spec_hash", Value: job.SpecHash},
			obs.SpanAttr{Key: "specs", Value: fmt.Sprint(len(req.Specs))},
			obs.SpanAttr{Key: "deduped", Value: "true"})
		s.cfg.Logger.Info("job submitted",
			"job", job.ID, "spec_hash", job.SpecHash,
			"specs", len(req.Specs), "deduped", true)
		return job, true, nil
	}
	job, err := s.queue.Submit(req, hash)
	if err != nil {
		return Job{}, false, err
	}
	s.count(MetricSubmitted, 1)
	s.publish()
	s.cfg.Tracer.Emit(job.ID, SpanSubmit, began, time.Now(),
		obs.SpanAttr{Key: "spec_hash", Value: job.SpecHash},
		obs.SpanAttr{Key: "specs", Value: fmt.Sprint(len(req.Specs))})
	s.cfg.Logger.Info("job submitted",
		"job", job.ID, "spec_hash", job.SpecHash,
		"specs", len(req.Specs), "deduped", false)
	return job, false, nil
}

// Job returns a copy of the named job.
func (s *Service) Job(id string) (Job, bool) { return s.queue.Get(id) }

// Jobs returns every job, oldest first.
func (s *Service) Jobs() []Job { return s.queue.List() }

// Progress returns the live per-job progress snapshot of a running job.
func (s *Service) Progress(id string) (harness.ProgressSnapshot, bool) {
	s.mu.Lock()
	r, ok := s.running[id]
	s.mu.Unlock()
	if !ok || r.progress == nil {
		return harness.ProgressSnapshot{}, false
	}
	return r.progress.Snapshot(), true
}

// Result loads the stored result set of a done job.
func (s *Service) Result(id string) (*ResultSet, error) {
	job, ok := s.queue.Get(id)
	if !ok {
		return nil, fmt.Errorf("jobs: unknown job %q", id)
	}
	if job.State != StateDone {
		return nil, fmt.Errorf("jobs: job %s is %s, not done", id, job.State)
	}
	rs, ok, err := s.store.Get(job.SpecHash)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("jobs: job %s is done but its result %s is missing from the store", id, job.SpecHash)
	}
	return rs, nil
}

// Cancel cancels any live job in one durable step: queued, parked for a
// retry, or running, in process or on a fleet worker. The cleared lease
// token fences the holder's late settle; an in-process run also has its
// context cancelled, and a remote holder learns at its next heartbeat.
// Terminal jobs return ErrFinished.
func (s *Service) Cancel(id string) (Job, error) {
	job, err := s.queue.Cancel(id)
	if err != nil {
		return job, err
	}
	s.mu.Lock()
	if r, ok := s.running[id]; ok {
		r.cancel()
	}
	if t, ok := s.timers[id]; ok {
		t.Stop()
		delete(s.timers, id)
	}
	s.mu.Unlock()
	s.publish()
	s.cfg.Logger.Warn("job canceled",
		"job", job.ID, "spec_hash", job.SpecHash, "attempts", job.Attempts)
	return job, nil
}

// runJob executes one leased job and settles it through CompleteLeased or
// FailLeased, fenced by the token its lease carries.
func (s *Service) runJob(job Job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	progress := harness.NewProgress(obs.NewSharedRegistry())
	s.mu.Lock()
	closing := s.closing
	if !closing {
		s.running[job.ID] = &runningJob{cancel: cancel, progress: progress}
	}
	s.mu.Unlock()
	if closing {
		return // shutdown raced the grant: the lease stays for recovery
	}
	if s.queue.ValidateLease(job.ID, job.LeaseToken) != nil {
		// Cancelled between the grant and the registration above, which
		// Cancel could not see yet.
		s.mu.Lock()
		delete(s.running, job.ID)
		s.mu.Unlock()
		return
	}
	s.publish()
	s.granted(job)
	s.cfg.Logger.Info("job started",
		"job", job.ID, "spec_hash", job.SpecHash,
		"attempt", job.Attempts, "specs", len(job.Request.Specs))

	// Cache counters are process-global, so under concurrent jobs the delta
	// is approximate; it still separates warm reruns from cold decodes.
	cacheHits0 := harness.DefaultTraceCache().Hits()
	cacheMiss0 := harness.DefaultTraceCache().Misses()
	runBegan := time.Now()

	results, phases, runErr := s.exec.Execute(ctx, job.Request, progress)

	attrs := []obs.SpanAttr{
		{Key: "specs", Value: fmt.Sprint(len(job.Request.Specs))},
		{Key: "cycles", Value: fmt.Sprint(progress.Snapshot().CyclesTotal)},
		{Key: "cache_hits", Value: fmt.Sprint(harness.DefaultTraceCache().Hits() - cacheHits0)},
		{Key: "cache_misses", Value: fmt.Sprint(harness.DefaultTraceCache().Misses() - cacheMiss0)},
	}
	if phases != "" {
		attrs = append(attrs, obs.SpanAttr{Key: "phases", Value: phases})
	}
	s.RecordAttempt(job.ID, runBegan, time.Now(), runErr, attrs...)

	s.mu.Lock()
	delete(s.running, job.ID)
	closing = s.closing
	s.mu.Unlock()

	if runErr != nil && closing {
		s.cfg.Logger.Warn("job interrupted by shutdown, left for recovery",
			"job", job.ID, "spec_hash", job.SpecHash)
		return
	}
	if runErr == nil {
		if _, runErr = s.CompleteLeased(job.ID, job.LeaseToken, results); runErr == nil {
			return
		}
	}
	if _, err := s.FailLeased(job.ID, job.LeaseToken, runErr); err != nil {
		// Cancelled mid-run — Cancel settled the job, and its cleared token
		// fences this attempt off — or the journal failed. Either way there
		// is nothing left to settle; refresh the in-flight gauge.
		s.publish()
	}
}

// Executor runs one job's specs. The daemon's own workers and fleet workers
// share it, so a job's results are byte-identical wherever it runs: same
// spec conversion, same timeout, same telemetry attachment, same result
// packaging.
type Executor struct {
	// Simulate runs the batch; nil selects harness.SimulateBatch.
	Simulate SimulateFunc
	// JobTimeout bounds one execution; 0 means no bound. A request with
	// TimeoutSeconds > 0 overrides it.
	JobTimeout time.Duration
	// Phases turns on the per-pipeline-stage wall-time breakdown.
	Phases bool
	// Telemetry attaches a cpu.Telemetry sampler to every spec, sampling
	// every TelemetryInterval simulated cycles.
	Telemetry bool
}

// Execute runs req's specs. Context errors win over per-spec errors so
// timeouts and cancellations are reported as such. The second return is the
// aggregated per-phase wall-time breakdown (empty unless Phases is set).
func (e Executor) Execute(ctx context.Context, req Request, progress *harness.Progress) ([]SpecResult, string, error) {
	timeout := e.JobTimeout
	if req.TimeoutSeconds > 0 {
		timeout = time.Duration(req.TimeoutSeconds) * time.Second
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	specs, err := req.HarnessSpecs()
	if err != nil {
		return nil, "", err
	}
	for i := range specs {
		specs[i].Phases = e.Phases
		if e.Telemetry {
			specs[i].Telemetry = cpu.NewTelemetry(TelemetryInterval, TelemetrySeriesCap)
		}
	}
	simulate := e.Simulate
	if simulate == nil {
		simulate = harness.SimulateBatch
	}
	results, err := simulate(ctx, specs, progress)
	progress.Finish()
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, "", ctxErr
		}
		return nil, "", err
	}
	if len(results) != len(req.Specs) {
		return nil, "", fmt.Errorf("jobs: executor returned %d results for %d specs", len(results), len(req.Specs))
	}
	out := make([]SpecResult, len(results))
	for i, r := range results {
		out[i] = SpecResult{Spec: req.Specs[i], Stats: r.Stats}
		if tl := specs[i].Telemetry; tl != nil && r.Stats != nil {
			out[i].Telemetry = tl.Snapshot()
		}
	}
	return out, phaseSummary(results), nil
}

// phaseSummary sums each pipeline phase's wall time across the job's specs
// and renders a compact "name=dur" list for the run span. Empty when no
// result carries a phase breakdown.
func phaseSummary(results []harness.Result) string {
	totals := make(map[string]time.Duration)
	var order []string
	for _, r := range results {
		for _, ph := range r.Phases {
			if _, ok := totals[ph.Name]; !ok {
				order = append(order, ph.Name)
			}
			totals[ph.Name] += ph.Total
		}
	}
	if len(order) == 0 {
		return ""
	}
	parts := make([]string, len(order))
	for i, name := range order {
		parts[i] = fmt.Sprintf("%s=%s", name, totals[name].Round(time.Microsecond))
	}
	return strings.Join(parts, " ")
}

// Snapshot is the service-level live picture: what /progress serves when a
// daemon (rather than a sweep) owns the obsweb server.
type Snapshot struct {
	QueueDepth   int   `json:"queue_depth"`
	Inflight     int   `json:"inflight"`
	JobsTotal    int   `json:"jobs_total"`
	StoreEntries int   `json:"store_entries"`
	StoreBytes   int64 `json:"store_bytes"`
	Recovered    int   `json:"recovered"`
	// Leased counts jobs currently running under a fleet worker's lease
	// (disjoint from Inflight, which counts in-process runs).
	Leased int `json:"leased"`
	// JournalCommits counts the queue journal's group commits: the
	// Θ(commits) durability work actually done, next to the O(transitions)
	// it absorbed.
	JournalCommits uint64 `json:"journal_commits"`
	// States counts every job by state.
	States map[State]int `json:"states"`
}

// Snapshot returns a consistent-enough live view for dashboards; each field
// is individually consistent.
func (s *Service) Snapshot() Snapshot {
	jobsList := s.queue.List()
	states := make(map[State]int)
	for _, j := range jobsList {
		states[j.State]++
	}
	s.mu.Lock()
	inflight := len(s.running)
	recovered := s.queue.Recovered()
	s.mu.Unlock()
	return Snapshot{
		QueueDepth:     s.queue.Depth(),
		Inflight:       inflight,
		JobsTotal:      len(jobsList),
		StoreEntries:   s.store.Len(),
		StoreBytes:     s.store.Bytes(),
		Recovered:      recovered,
		Leased:         s.queue.Leased(),
		JournalCommits: s.queue.Commits(),
		States:         states,
	}
}

// count bumps a service counter, when metrics are attached.
func (s *Service) count(name string, n int64) {
	if s.cfg.Metrics != nil {
		s.cfg.Metrics.Add(name, n)
	}
}

// observe records one latency sample, when metrics are attached. Negative
// samples (clock skew across a restart) are clamped to zero.
func (s *Service) observe(name string, ms int64) {
	if s.cfg.Metrics == nil {
		return
	}
	if ms < 0 {
		ms = 0
	}
	s.cfg.Metrics.Observe(name, ms)
}

// publish refreshes the service gauges, when metrics are attached.
func (s *Service) publish() {
	if s.cfg.Metrics == nil {
		return
	}
	s.mu.Lock()
	inflight := len(s.running)
	s.mu.Unlock()
	depth := s.queue.Depth()
	entries, bytes := s.store.Len(), s.store.Bytes()
	s.cfg.Metrics.Do(func(r *obs.Registry) {
		r.Counter(MetricSubmitted)
		r.Counter(MetricDedup)
		r.Counter(MetricCompleted)
		r.Counter(MetricFailed)
		r.Counter(MetricCanceled)
		r.Counter(MetricRetries)
		r.Counter(MetricAttemptErrors)
		r.Histogram(MetricQueueWaitMS)
		r.Histogram(MetricRunMS)
		r.Histogram(MetricE2EMS)
		r.Gauge(MetricQueueDepth).Set(float64(depth))
		r.Gauge(MetricInflight).Set(float64(inflight))
		r.Gauge(MetricStoreEntries).Set(float64(entries))
		r.Gauge(MetricStoreBytes).Set(float64(bytes))
	})
}
